"""The traced benchmark run rebinds summa functions by (module, name);
every such name must still exist, or a rename silently breaks it."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_wrap_points_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    points = [(mod, name) for mod, name, _, _ in tracing.WRAP_POINTS if mod != "bench"]
    assert points
    missing = [
        f"{mod}.{name}" for mod, name in points
        if not callable(getattr(importlib.import_module(mod), name, None))
    ]
    assert not missing, f"benchmark wrap points no longer resolve: {missing}"
