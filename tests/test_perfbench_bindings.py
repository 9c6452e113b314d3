"""The benchmark harness in perfbench/ wraps module attributes of the
program by name and reads fields of its results; renaming one must fail
here, not only in a benchmark run."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``spans`` and ``workloads`` modules."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import spans
        import workloads
        yield spans, workloads
    finally:
        # perfbench's top-level module names are generic; do not leave
        # them importable from other tests
        for name in ("spans", "workloads", "checks"):
            sys.modules.pop(name, None)


def _context(workloads, spans, out_dir):
    return workloads.Context(infx=workloads.load_infxlap(),
                             tracer=spans.Tracer(False), seed=0,
                             out_dir=out_dir, captured=[])


def test_every_wrapped_attribute_resolves(perfbench, tmp_path):
    spans, workloads = perfbench
    bindings = workloads.bindings(_context(workloads, spans, tmp_path))
    before = [getattr(owner, attr) for owner, attr, _ in bindings]
    with spans.rebind(bindings):
        for owner, attr, value in bindings:
            assert getattr(owner, attr) is value
    assert [getattr(owner, attr) for owner, attr, _ in bindings] == before


def test_one_round_of_each_workload_passes(perfbench, tmp_path):
    # what the workloads read of the program's results (the report's gaps
    # and per-k records, the polished fields) must still be there
    spans, workloads = perfbench
    for name, workload in workloads.WORKLOADS.items():
        out_dir = tmp_path / name
        out_dir.mkdir()
        ctx = _context(workloads, spans, out_dir)
        with spans.rebind(workloads.bindings(ctx)):
            ops = workload.ops(workload.setup(ctx), ctx)
            failures = {op.name: workloads.run_op(op, ctx.tracer)[0]
                        for op in ops}
        assert ops and failures == {op.name: [] for op in ops}, name
