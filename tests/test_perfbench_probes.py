"""The benchmark's layer probes still find every name they patch.

`perfbench/layers.py` times the program by replacing module attributes
(`adapt.evaluate`, `mdnet.md_forward`, ...) with timing wrappers. A name
that is deleted or moved out of the module that calls it makes `install`
fail; this test catches that without running the benchmark itself.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    yield layers, tracer
    for name in ("layers", "tracer"):
        sys.modules.pop(name, None)


def test_every_probed_name_exists_and_is_restored(perfbench_modules):
    layers, tracer = perfbench_modules
    t = tracer.Tracer()
    try:
        layers.install(t)
        patched = [(module, attr, original) for module, attr, original in t._patches]
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original
    finally:
        t.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
