"""The traced benchmark run rebinds summa functions by (module, name) and
reads their arguments and results in count functions; every such name
must still exist, and every count function must still accept what the
call passes, or a change silently breaks the traced run."""

import contextlib
import importlib
import importlib.util
import io
import sys
import types
from pathlib import Path

import pytest

import summa
from summa import cli, tables

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_wrap_points_resolve(tracing):
    points = [(mod, name) for mod, name, _, _ in tracing.WRAP_POINTS if mod != "bench"]
    assert points
    missing = [
        f"{mod}.{name}" for mod, name in points
        if not callable(getattr(importlib.import_module(mod), name, None))
    ]
    assert not missing, f"benchmark wrap points no longer resolve: {missing}"


def test_count_functions_return(tracing, tmp_path):
    bench = types.SimpleNamespace(
        simulate_ensemble=summa.simulate_ensemble,
        rank_transform=summa.rank_transform,
        run_pipeline=summa.run_pipeline,
        evaluate_ensemble=summa.evaluate_ensemble,
    )
    tracer = tracing.Tracer()
    tracer.install(bench)
    try:
        data = bench.simulate_ensemble(
            summa.SimulationConfig(n_methods=8, n_samples=200, rho=0.3, seed=3))
        result = bench.run_pipeline(bench.rank_transform(data.scores, "midrank"))
        bench.evaluate_ensemble(result.summa, data.labels)
        sim, inf = tmp_path / "sim", tmp_path / "inf"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "--methods", "8", "--samples", "200",
                             "--seed", "3", "--output-dir", str(sim)]) == 0
            assert cli.main(["infer", str(sim / "scores.csv"), "--output-dir", str(inf)]) == 0
            assert cli.main(["evaluate", "--scores", str(inf / "ensemble_scores.csv"),
                             "--labels", str(sim / "labels.csv"),
                             "--output-dir", str(tmp_path / "ev")]) == 0
    finally:
        tracer.uninstall()
    layers = {layer for _, _, layer, _ in tracing.WRAP_POINTS}
    unrecorded = layers - {span.name for span in tracer.spans}
    assert not unrecorded, f"no spans recorded for {sorted(unrecorded)}"
    counted = {layer for _, _, layer, count in tracing.WRAP_POINTS if count is not None}
    uncounted = counted - {span.name for span in tracer.spans if span.counts}
    assert not uncounted, f"no counts recorded for {sorted(uncounted)}"
    assert summa.pipeline.recover_rank1_tensor is summa.decomposition.recover_rank1_tensor
    # the cli.* layers wrap the names summa.cli calls: the table functions themselves
    for name in ("read_matrix_table", "read_labels_table", "write_table"):
        assert getattr(cli, name) is getattr(tables, name), name
