"""Benchmark of the infxlap solver: three workloads, each led by one layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, traced and not
    python3 perfbench/run.py --self-test      # each check can fail

Run from the root of a source tree; the program is imported from ``src/``.
A run sets the workload up several times, then repeats whole rounds of its
operations until ``--seconds`` have passed, and checks every output outside
the timed work.  A fixed reference kernel runs between every two set-ups
and operations; each time is scaled by the kernel's time around it
(``hostspeed.py``), and a metric is the median of the scaled times.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Thread pools size themselves on import: cap them at the cores we may use.
_CORES = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _set = os.environ.get(_var, "")
    if not (_set.isdigit() and 0 < int(_set) <= _CORES):
        os.environ[_var] = str(_CORES)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PER_RUN_TIMEOUT = 170
# Set-ups timed before the first round: at least this many, and at least
# this many seconds of them, reference kernels included.
MIN_SETUPS = 5
SETUP_SECONDS = 1.5


def import_program():
    """Import infxlap from this tree's ``src/``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import infxlap
    except ImportError as exc:
        raise SystemExit(f"error: cannot import infxlap from {src}: {exc}")
    if Path(infxlap.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: infxlap imported from {infxlap.__file__}, "
                         f"not from {src}")
    import workloads
    return workloads


def round_wall(op_walls: dict[str, list[float]],
               op_refs: dict[str, list[tuple[float, float]]]) -> float:
    """A round's time: the sum over its operations of each one's median
    scaled time."""
    from hostspeed import scaled
    return sum(scaled(op_walls[name], op_refs[name]) for name in op_walls)


def layer_metrics(tracer, n_setups: int, op_walls: dict, op_refs: dict,
                  refs: list[float]) -> dict:
    """Per-layer self times and counts: set-up layers per set-up, the rest
    per round.  Self times are as measured, not scaled."""
    from spans import overhead_per_span
    n_rounds = len(next(iter(op_walls.values())))
    own = tracer.self_times()
    in_setup = [tracer.root(k) == "setup" for k in range(len(tracer.spans))]

    def select(setup):
        return [(rec, t) for rec, t, s in zip(tracer.spans, own, in_setup)
                if s == setup]

    def self_s(name, setup=False):
        """Self time of spans called ``name``, or starting with it if it
        ends in a dot."""
        return sum(t for rec, t in select(setup)
                   if rec[0] == name or (name.endswith(".")
                                         and rec[0].startswith(name)))

    def calls(name):
        return sum(1 for rec, _ in select(False) if rec[0] == name)

    def count(key, setup=False):
        return sum(rec[4].get(key, 0) for rec, _ in select(setup))

    per_setup = {
        "config.load_s": (self_s("config.load", True), "s"),
        "grid.sample_s": (self_s("grid.sample", True), "s"),
        "grid.sample_points": (count("grid.sample_points", True), "count"),
    }
    verify_solves = sum(
        1 for k, rec in enumerate(tracer.spans)
        if rec[0] == "solvers.solve" and tracer.has_ancestor(k, "verify."))
    per_round = {
        "config.export_s": (self_s("config.export"), "s"),
        "solvers.factor_s": (self_s("solvers.factor"), "s"),
        "solvers.factor_calls": (calls("solvers.factor"), "count"),
        "solvers.continuation_s": (self_s("solvers.continuation"), "s"),
        "solvers.k_steps": (count("solvers.k_steps"), "count"),
        "solvers.newton_steps": (count("solvers.newton_steps"), "count"),
        "solvers.polish_s": (self_s("solvers.polish"), "s"),
        "solvers.harmonic_s": (self_s("solvers.harmonic"), "s"),
        "operators.residual_s": (self_s("operators.residual"), "s"),
        "operators.residual_calls": (calls("operators.residual"), "count"),
        "grid.distance_s": (self_s("grid.distance"), "s"),
        "grid.distance_calls": (calls("grid.distance"), "count"),
        "verify.self_s": (self_s("verify."), "s"),
        "verify.solves": (verify_solves, "count"),
        "trace.overhead_s": (len(select(False)) * overhead_per_span(), "s"),
    }

    def value(v, unit):
        return int(v) if unit == "count" and float(v).is_integer() else v

    out = {k: {"value": value(v / n_setups, u), "unit": u}
           for k, (v, u) in per_setup.items()}
    out.update({k: {"value": value(v / n_rounds, u), "unit": u}
                for k, (v, u) in per_round.items()})
    out["trace.wall_s"] = {"value": round_wall(op_walls, op_refs), "unit": "s"}
    out["host.ref_s"] = {"value": statistics.median(refs), "unit": "s"}
    return out


def run_workload(wl_mod, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    from hostspeed import reference_time, scaled
    from spans import Tracer, rebind

    workload = wl_mod.WORKLOADS[name]
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(trace)
    ctx = wl_mod.Context(infx=wl_mod.load_infxlap(), tracer=tracer, seed=seed,
                         out_dir=out_dir, captured=[])
    setup_times, setup_refs, errors = [], [], []
    op_walls: dict[str, list[float]] = {}
    # the reference kernel's times before and after each set-up and operation
    op_refs: dict[str, list[tuple[float, float]]] = {}
    refs = [reference_time()]
    attempted = failed = rounds = 0

    with rebind(wl_mod.bindings(ctx)):
        start = time.perf_counter()
        while (len(setup_times) < MIN_SETUPS
               or time.perf_counter() - start < SETUP_SECONDS):
            t0 = time.perf_counter()
            with tracer.span("setup"):
                inputs = workload.setup(ctx)
            setup_times.append(time.perf_counter() - t0)
            refs.append(reference_time())
            setup_refs.append((refs[-2], refs[-1]))
        ops = workload.ops(inputs, ctx)
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            for op in ops:
                attempted += 1
                problems, op_wall = wl_mod.run_op(op, tracer)
                refs.append(reference_time())
                op_walls.setdefault(op.name, []).append(op_wall)
                op_refs.setdefault(op.name, []).append((refs[-2], refs[-1]))
                if problems:
                    failed += 1
                    errors.extend(f"{op.name}: {p}" for p in problems)
            rounds += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        metrics = layer_metrics(tracer, len(setup_times), op_walls, op_refs,
                                refs)
        (out_dir / f"spans-seed{seed}.json").write_text(
            json.dumps(tracer.to_json()))
    else:
        metrics = {
            "wall_s": {"value": round_wall(op_walls, op_refs), "unit": "s"},
            "setup_s": {"value": scaled(setup_times, setup_refs), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    # No operation fails at this commit: one that fails, even by raising
    # early, makes the run incorrect rather than fast.
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(dict(result, rounds=rounds, errors=errors,
                        op_walls=op_walls, op_refs=op_refs,
                        setup_times=setup_times, setup_refs=setup_refs),
                   indent=1))
    for err in errors:
        print(f"FAILED {err}", file=sys.stderr)
    return result


def run_child(name: str, args, trace: int) -> dict:
    """One workload in a fresh process; its result, or an incorrect one
    with no metrics if it printed none."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PER_RUN_TIMEOUT, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"{name} --trace {trace}: no result in {PER_RUN_TIMEOUT} s",
              file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{name} --trace {trace}: exit code {proc.returncode}, "
              f"no result", file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def run_all(names, args) -> int:
    """Every workload untraced and then traced, each in a fresh process;
    prints the end-to-end and per-layer metrics of each, then all results."""
    results = {}
    for name in names:
        plain, traced = run_child(name, args, 0), run_child(name, args, 1)
        results[name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": {**plain["metrics"], **traced["metrics"]},
        }
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:26s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", dest="self_test")
    args = ap.parse_args(argv)
    wl_mod = import_program()
    if args.self_test:
        import selftest
        return selftest.main(OUT / "selftest")
    if args.workload == "all":
        return run_all(list(wl_mod.WORKLOADS), args)
    if args.workload not in wl_mod.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    result = run_workload(wl_mod, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    for metric, m in result["metrics"].items():
        print(f"{metric} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
