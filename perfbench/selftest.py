"""Self-test: each check can fail.

Runs one round of the continuation and distance workloads, once as they
are (no operation may fail) and once with a fault fed in: a perturbed
field, distances scaled by 1.01, an exported CSV with one digit changed,
and the eikonal check's field scaled by 1.2.  Each fault must be reported
as a failed operation.
"""

from __future__ import annotations

import functools
from pathlib import Path

import workloads
from spans import Tracer, rebind


def _run(workload, out_dir: Path, change_op=None, extra=()) -> dict:
    """Failure messages of one round, by operation name."""
    ctx = workloads.Context(infx=workloads.load_infxlap(),
                            tracer=Tracer(False), seed=1, out_dir=out_dir,
                            captured=[])
    failures = {}
    with rebind(workloads.bindings(ctx)), rebind(extra(ctx.infx) if extra
                                                 else ()):
        ops = workload.ops(workload.setup(ctx), ctx)
        for op in ops:
            if change_op is not None:
                op = change_op(op)
            problems, _ = workloads.run_op(op, ctx.tracer)
            failures[op.name] = problems
    return failures


def _perturb_field(op):
    if op.name != "solve":
        return op

    def work():
        u, report = op.work()
        bumped = u.copy()
        j, i = (s // 2 for s in u.shape)
        bumped[j, i] += 1e-3
        return bumped, report
    return workloads.Op(op.name, work, op.check)


def _change_digit(op):
    if op.name != "export":
        return op

    def work():
        path = op.work()
        lines = path.read_text().splitlines(keepends=True)
        row = len(lines) // 2
        value = lines[row].rstrip("\n")
        digit = value[-1]
        lines[row] = value[:-1] + ("1" if digit != "1" else "2") + "\n"
        path.write_text("".join(lines))
        return path
    return workloads.Op(op.name, work, op.check)


def _scale_eikonal_field(op):
    if op.name != "eikonal":
        return op
    return workloads.Op(op.name, lambda: 1.2 * op.work(), op.check)


def _scaled_distances(infx):
    dist = infx.verify.riemannian_distance

    @functools.wraps(dist)
    def scaled(*args, **kwargs):
        return 1.01 * dist(*args, **kwargs)
    return [(infx.verify, "riemannian_distance", scaled),
            (infx.cli, "riemannian_distance", scaled)]


def main(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    cont = workloads.WORKLOADS["continuation-varframe-49"]
    dist = workloads.WORKLOADS["distance-varframe-33"]
    cases = [
        ("continuation, unchanged", _run(cont, out_dir), set()),
        ("distance, unchanged", _run(dist, out_dir), set()),
        ("perturbed field", _run(cont, out_dir, _perturb_field), {"solve"}),
        ("CSV with one digit changed", _run(cont, out_dir, _change_digit),
         {"export"}),
        ("distances scaled by 1.01", _run(dist, out_dir,
                                          extra=_scaled_distances),
         {"lipschitz"}),
        ("eikonal field scaled by 1.2", _run(dist, out_dir,
                                             _scale_eikonal_field),
         {"eikonal"}),
    ]
    ok = True
    for label, failures, expected in cases:
        failed = {name for name, problems in failures.items() if problems}
        good = failed == expected
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {label}: failed operations "
              f"{sorted(failed) or 'none'} (expected {sorted(expected) or 'none'})")
        for name in sorted(failed):
            for problem in failures[name]:
                print(f"    {name}: {problem}")
    return 0 if ok else 1
