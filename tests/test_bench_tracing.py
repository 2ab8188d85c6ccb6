"""The benchmark's tracer names dualdec functions by module and attribute;
a rename or deletion in dualdec must show up here, not as a crash of every
benchmark run."""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_resolves_and_is_unwrapped(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing
    assert tracing.wrapped_names() == []
