"""Command-line surface: solve, residual, distance, verify, report.

Exit codes: 0 success / check passed, 1 failed check or solver failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import config as cfgio
from . import operators, verify
from .expressions import ExprError
from .grid import riemannian_distance
from .solvers import SolverError, solve_dirichlet_infinity


def _load(path: str):
    try:
        return cfgio.load_problem(path)
    except (ExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _apply_overrides(spec, args):
    if getattr(args, "epsilon", None) is not None:
        spec = replace(spec, epsilon=args.epsilon)
    if getattr(args, "k_max", None) is not None:
        schedule = tuple(k for k in spec.config.k_schedule if k <= args.k_max)
        if not schedule:
            print("error: --k-max excludes the whole schedule", file=sys.stderr)
            raise SystemExit(2)
        cfg = replace(spec.config, k_schedule=schedule)
        spec = replace(spec, config=cfg)
    return spec


def _run_solve(spec):
    return solve_dirichlet_infinity(spec)


def cmd_solve(args) -> int:
    """``solve`` exports the field and prints the report; ``report``,
    which has no ``--out``, only prints it."""
    spec = _apply_overrides(_load(args.config), args)
    try:
        u, report = _run_solve(spec)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "out", None) is not None:
        cfgio.export_field(u, spec.grid, args.out)
    print(report.format())
    return 0


def cmd_residual(args) -> int:
    spec = _load(args.config)
    try:
        u = cfgio.import_field(args.infile, spec.grid)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res = operators.infinity_x_residual_field(u, spec.frame, spec.p)
    cfgio.export_field(res, spec.grid, args.out)
    if args.min_form_out:
        eps = spec.epsilon if spec.epsilon > 0 else 1.0
        cfgio.export_field(
            operators.min_form_residual(u, spec.frame, spec.p, eps),
            spec.grid, args.min_form_out)
    if args.max_form_out:
        eps = abs(spec.epsilon) if spec.epsilon != 0 else 1.0
        cfgio.export_field(
            operators.max_form_residual(u, spec.frame, spec.p, eps),
            spec.grid, args.max_form_out)
    return 0


def cmd_distance(args) -> int:
    spec = _load(args.config)
    try:
        i, j = (int(t) for t in args.source.split(","))
    except ValueError:
        print("error: --source must be i,j", file=sys.stderr)
        return 2
    try:
        d = riemannian_distance(spec.frame, spec.grid, (i, j))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cfgio.export_field(d, spec.grid, args.out)
    return 0


def _verify_comparison(spec) -> verify.CheckReport:
    u, _ = _run_solve(spec)
    raised = replace(spec, f=spec.f + 0.1)
    v, _ = _run_solve(raised)
    return verify.check_comparison(u, v, spec.grid, tol=1e-6)


#: ball centers and radii drawn before the Harnack suite gives up
_HARNACK_DRAWS = 100


def _verify_harnack(spec) -> verify.CheckReport:
    bmask = spec.grid.boundary_mask()
    fmin, fmax = float(np.min(spec.f[bmask])), float(np.max(spec.f[bmask]))
    if fmin <= 0:
        return verify.CheckReport(name="harnack", passed=False,
                                  worst_value=fmin, tol=0.0, applicable=False,
                                  stats={"reason": "boundary data not positive"})
    u, _ = _run_solve(spec)
    rng = np.random.default_rng(1)
    grid = spec.grid
    extent = min(grid.xmax - grid.xmin, grid.ymax - grid.ymin)
    worst = -np.inf
    tried = 0
    node = None
    draws = 0
    while tried < 5 and draws < _HARNACK_DRAWS:
        draws += 1
        ci = int(rng.integers(grid.nx // 4, 3 * grid.nx // 4))
        cj = int(rng.integers(grid.ny // 4, 3 * grid.ny // 4))
        r = float(rng.uniform(0.05, 0.12)) * extent
        dist = riemannian_distance(spec.frame, grid, (ci, cj))
        try:
            c = verify.harnack_constant(u, grid, dist, r)
        except ValueError:
            continue
        tried += 1
        bound = 2.0 * fmax / (fmin + r) + 0.1
        if c - bound > worst:
            worst = c - bound
            node = (ci, cj)
    if tried < 5:
        return verify.CheckReport(
            name="harnack", passed=False, worst_value=worst, tol=0.1,
            worst_node=node, applicable=False,
            stats={"balls": tried,
                   "reason": f"{tried} of {draws} drawn balls of radius 2r "
                             f"fit inside the domain, 5 needed"})
    return verify.CheckReport(name="harnack", passed=worst <= 0.0,
                              worst_value=worst, tol=0.1, worst_node=node,
                              stats={"balls": tried})


def _verify_lemma41(spec) -> verify.CheckReport:
    u, _ = _run_solve(spec)
    if np.any(u <= 0):
        return verify.CheckReport(name="log-gradient bound", passed=False,
                                  worst_value=float(np.min(u)), tol=0.1,
                                  applicable=False,
                                  stats={"reason": "solution not positive"})
    zeta = verify.make_tent_cutoff(spec.grid)
    return verify.check_log_gradient_bound(u, zeta, spec.p, spec.frame, tol=0.1)


def _verify_uniqueness(spec) -> verify.CheckReport:
    return verify.uniqueness_probe(spec)


def _verify_eikonal(spec) -> verify.CheckReport:
    d = riemannian_distance(spec.frame, spec.grid, (0, 0))
    extent = min(spec.grid.xmax - spec.grid.xmin,
                 spec.grid.ymax - spec.grid.ymin)
    # the 8-neighbor graph metric overestimates off-lattice directions by
    # up to ~8%, and anisotropic frames widen that; allow 0.15 here
    return verify.eikonal_check(d, spec.frame,
                                exclusion_radius=0.2 * extent, tol=0.15)


_SUITES = {
    "comparison": _verify_comparison,
    "harnack": _verify_harnack,
    "lemma41": _verify_lemma41,
    "uniqueness": _verify_uniqueness,
    "eikonal": _verify_eikonal,
}


def cmd_verify(args) -> int:
    spec = _load(args.config)
    try:
        report = _SUITES[args.suite](spec)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    print(report.format())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="infxlap",
        description="variable-exponent infinity-Laplace solver on 2-D frames",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the Dirichlet solve and export the field")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--k-max", type=float, default=None, dest="k_max")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("residual", help="evaluate residual fields of a solution")
    p.add_argument("--config", required=True)
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--out", required=True)
    p.add_argument("--min-form-out", default=None)
    p.add_argument("--max-form-out", default=None)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("distance", help="Riemannian distance field from a node")
    p.add_argument("--config", required=True)
    p.add_argument("--source", required=True, help="node indices i,j")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--config", required=True)
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="run the solve and print its report")
    p.add_argument("--config", required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--k-max", type=float, default=None, dest="k_max")
    p.set_defaults(func=cmd_solve)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)  # exits 2 on usage errors
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
