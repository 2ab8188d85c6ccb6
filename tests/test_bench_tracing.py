"""The benchmark's tracer names dualdec functions by module and attribute;
a rename or deletion in dualdec must show up here, not as a crash of every
benchmark run."""
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_resolves_and_is_unwrapped(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing
    assert tracing.wrapped_names() == []


@pytest.mark.slow
def test_bench_selftest_passes():
    # the tracer's hooks read traced functions' arguments by position, so a
    # changed signature shows up here rather than in a benchmark run
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
