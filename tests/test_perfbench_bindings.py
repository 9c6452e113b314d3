"""The benchmark harness in perfbench/ wraps module attributes of the
program by name; renaming one must fail here, not only in a benchmark run."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrapped_attribute_resolves(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import spans
        import workloads

        ctx = workloads.Context(infx=workloads.load_infxlap(),
                                tracer=spans.Tracer(False), seed=0,
                                out_dir=tmp_path, captured=[])
        bindings = workloads.bindings(ctx)
        before = [getattr(owner, attr) for owner, attr, _ in bindings]
        with spans.rebind(bindings):
            for owner, attr, value in bindings:
                assert getattr(owner, attr) is value
        assert [getattr(owner, attr) for owner, attr, _ in bindings] == before
    finally:
        # perfbench's top-level module names are generic; do not leave
        # them importable from other tests
        for name in ("spans", "workloads", "checks"):
            sys.modules.pop(name, None)
