"""The benchmark's traced names must exist in the library.

`perfbench/workloads.py:targets()` wraps library functions by name
(`getattr` on the module the pipeline calls them through), so a clean-up
that deletes or moves one of them breaks `perfbench/run.py --trace 1`.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    targets = workloads.targets()
    assert targets
    missing = [t.name for t in targets if not callable(getattr(t.module, t.attr, None))]
    assert missing == []
