"""The benchmark must keep working against the library.

`perfbench/workloads.py:targets()` wraps library functions by name
(`getattr` on the module the pipeline calls them through), so a clean-up
that deletes or moves one of them breaks `perfbench/run.py --trace 1`.
`gen.py` and `workloads.py` also build configs and call the library
directly, which the benchmark's own tests exercise.
"""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    targets = workloads.targets()
    assert targets
    missing = [t.name for t in targets if not callable(getattr(t.module, t.attr, None))]
    assert missing == []


def test_the_benchmark_suite_passes():
    # a session of its own: in this one, perfbench/tests/conftest.py would
    # shadow tests/conftest.py
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
