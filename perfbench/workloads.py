"""The three workloads, each led by one layer of the solver.

A workload has a set-up (``load_problem`` plus the inputs built from the
seed) and a round: a fixed list of operations, each a timed ``work`` step
followed by an untimed ``check`` of its output.  A run repeats whole rounds,
so every run attempts the same operations in the same proportions.  Grids
are small enough that every operation takes well under a second, so a run
times each one many times.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"


@dataclass
class Op:
    name: str
    work: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Context:
    """What a workload sees: the program's modules, the tracer, the seed,
    the solves captured from the program's own calls, and an output dir."""

    infx: Any
    tracer: Any
    seed: int
    out_dir: Path
    captured: list


def run_op(op: Op, tracer) -> tuple[list[str], float]:
    """Run one operation: its failure messages and its work time.

    An exception in the work or in the check fails the operation; so does
    a failed check.
    """
    t0 = time.perf_counter()
    try:
        with tracer.span(f"op.{op.name}"):
            result = op.work()
    except Exception as exc:                         # noqa: BLE001
        return ([f"raised {type(exc).__name__}: {exc}"],
                time.perf_counter() - t0)
    wall = time.perf_counter() - t0
    try:
        return op.check(result), wall
    except Exception as exc:                         # noqa: BLE001
        return [f"check raised {type(exc).__name__}: {exc}"], wall


def load_infxlap():
    """The program's modules, as the CLI and the suites import them."""
    from infxlap import cli, config, grid, solvers, verify
    return SimpleNamespace(cli=cli, config=config, grid=grid,
                           solvers=solvers, verify=verify)


def _k_counts(args, result):
    report = result[1]
    return {"solvers.k_steps": len(report.per_k),
            "solvers.newton_steps": sum(s.iterations for s in report.per_k)}


def bindings(ctx: Context):
    """Module attributes to rebind for a run: spans around every layer,
    the seed fed to ``uniqueness_probe``, and capture of every solve."""
    m, tr = ctx.infx, ctx.tracer
    solvers, verify, cli, config, grid = (m.solvers, m.verify, m.cli,
                                          m.config, m.grid)
    solve_fn = solvers.solve_dirichlet_infinity

    @functools.wraps(solve_fn)
    def captured_solve(spec, *args, **kwargs):
        u, report = solve_fn(spec, *args, **kwargs)
        ctx.captured.append((spec, u, report))
        return u, report

    solve = tr.wrap("solvers.solve", captured_solve)
    distance = tr.wrap("grid.distance", grid.riemannian_distance)
    harmonic = tr.wrap("solvers.harmonic", solvers.harmonic_extension)
    sample_points = lambda args, _: {"grid.sample_points": args[0].n_nodes}  # noqa: E731
    probe = functools.partial(verify.uniqueness_probe, seed=ctx.seed)
    out = [
        (config, "load_problem", tr.wrap("config.load", config.load_problem)),
        (grid.Grid2D, "sample",
         tr.wrap("grid.sample", grid.Grid2D.sample, sample_points)),
        (config, "export_field", tr.wrap("config.export", config.export_field)),
        (solvers, "splu", tr.wrap("solvers.factor", solvers.splu)),
        (solvers, "continue_k",
         tr.wrap("solvers.continuation", solvers.continue_k, _k_counts)),
        (solvers, "_polish_newton",
         tr.wrap("solvers.polish", solvers._polish_newton)),
        (solvers, "harmonic_extension", harmonic),
        (verify, "harmonic_extension", harmonic),
        (solvers, "infinity_x_residual_field",
         tr.wrap("operators.residual", solvers.infinity_x_residual_field)),
        (verify, "riemannian_distance", distance),
        (cli, "riemannian_distance", distance),
        (verify, "solve_dirichlet_infinity", solve),
        (cli, "solve_dirichlet_infinity", solve),
        (verify, "uniqueness_probe", tr.wrap("verify.uniqueness_probe", probe)),
    ]
    for name in ("check_comparison", "lipschitz_constant"):
        out.append((verify, name,
                    tr.wrap(f"verify.{name}", getattr(verify, name))))
    return out


def _axes(spec):
    return spec.grid.xs, spec.grid.ys


# -- continuation-varframe-49 -------------------------------------------------

class Continuation:
    """One 49^2 Dirichlet solve with the polish off, written as
    ``infxlap solve --out`` writes it: sparse LU does most of the work."""

    name = "continuation-varframe-49"
    config = CONFIGS / "varframe-49-nopolish.ini"

    def setup(self, ctx: Context):
        return ctx.infx.config.load_problem(self.config)

    def ops(self, spec, ctx: Context) -> list[Op]:
        cli, config = ctx.infx.cli, ctx.infx.config
        state = {}
        path = ctx.out_dir / "u.csv"

        def solve():
            # cmd_solve: _run_solve, then export_field
            state["u"], report = cli._run_solve(spec)
            return state["u"], report

        def check_solve(result):
            u, report = result
            return (checks.check_range(u, spec.f, "solution")
                    + checks.check_gaps_decrease(report.gaps)
                    + checks.check_residual(u, *_axes(spec), "solution"))

        def export():
            config.export_field(state["u"], spec.grid, path)
            return path

        return [Op("solve", solve, check_solve),
                Op("export", export,
                   lambda p: checks.check_csv(p, state["u"], *_axes(spec)))]


# -- verify-varframe-17 -------------------------------------------------------

class Verify:
    """The CLI's uniqueness and comparison suites at 17^2 with ten polish
    sweeps: five full solves, most of each in polish residual evaluations."""

    name = "verify-varframe-17"
    config = CONFIGS / "varframe-17-polish10.ini"

    def setup(self, ctx: Context):
        return ctx.infx.config.load_problem(self.config)

    def ops(self, spec, ctx: Context) -> list[Op]:
        cli, tr = ctx.infx.cli, ctx.tracer

        def suite(name, fn):
            def work():
                ctx.captured.clear()
                with tr.span(f"verify.suite.{name}"):
                    report = fn(spec)
                return report, list(ctx.captured)
            return work

        def check_solutions(solves):
            out = []
            for k, (s, u, _) in enumerate(solves):
                out += checks.check_range(u, s.f, f"solve {k}")
                out += checks.check_residual(u, *_axes(s), f"solve {k}")
            return out

        def check_uniqueness(result):
            report, solves = result
            out = checks.check_suite(report) + check_solutions(solves)
            if len(solves) != 3:
                out.append(f"uniqueness suite ran {len(solves)} solves, not 3")
            return out

        def check_comparison(result):
            report, solves = result
            out = checks.check_suite(report) + check_solutions(solves)
            if len(solves) != 2:
                return out + [f"comparison suite ran {len(solves)} solves"]
            (_, u, _), (raised, v, _) = solves
            if not np.array_equal(raised.f, spec.f + checks.RAISE):
                out.append("second comparison solve is not on raised data")
            return out + checks.check_raised(u, v)

        return [Op("uniqueness", suite("uniqueness", cli._verify_uniqueness),
                   check_uniqueness),
                Op("comparison", suite("comparison", cli._verify_comparison),
                   check_comparison)]


# -- distance-varframe-33 -----------------------------------------------------

class Distance:
    """Riemannian distance fields at 33^2 and no solve: the Lipschitz
    constant of the boundary data over 64 boundary sources, plus the fields
    the symmetry, scaling and eikonal checks need."""

    name = "distance-varframe-33"
    config = CONFIGS / "varframe-33.ini"
    pairs = 4

    def setup(self, ctx: Context):
        spec = ctx.infx.config.load_problem(self.config)
        rng = np.random.default_rng(ctx.seed)
        nx, ny = spec.grid.nx, spec.grid.ny
        pairs = []
        while len(pairs) < self.pairs:
            a = (int(rng.integers(nx)), int(rng.integers(ny)))
            b = (int(rng.integers(nx)), int(rng.integers(ny)))
            if a != b:
                pairs.append((a, b))
        return spec, spec.frame.scaled(2.0), pairs

    def ops(self, inputs, ctx: Context) -> list[Op]:
        spec, doubled, pairs = inputs
        verify, cli = ctx.infx.verify, ctx.infx.cli
        g = spec.grid
        state = {}

        def lipschitz():
            return verify.lipschitz_constant(spec.f, g, spec.frame)

        def symmetry():
            state["a"] = [verify.riemannian_distance(spec.frame, g, a)
                          for a, _ in pairs]
            fields_b = [verify.riemannian_distance(spec.frame, g, b)
                        for _, b in pairs]
            return state["a"], fields_b

        def scaling():
            return [verify.riemannian_distance(doubled, g, a) for a, _ in pairs]

        def eikonal():
            # the field the CLI's eikonal suite checks: from node (0, 0)
            return cli.riemannian_distance(spec.frame, g, (0, 0))

        return [
            Op("lipschitz", lipschitz, checks.check_lipschitz),
            Op("symmetry", symmetry,
               lambda r: checks.check_symmetric(pairs, *r)),
            Op("scaling", scaling,
               lambda r: checks.check_halved(state["a"], r)),
            Op("eikonal", eikonal,
               lambda d: checks.check_eikonal(d, *_axes(spec))),
        ]


WORKLOADS = {w.name: w for w in (Continuation(), Verify(), Distance())}
