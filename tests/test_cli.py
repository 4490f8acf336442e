"""Command-line workflow tests: file outputs, manifests, determinism,
and error exit codes.  Commands run in-process through main(argv)."""

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from summa import cli
from summa.cli import _CHUNK_ROWS, main, read_matrix_table, write_table


def run(*argv):
    return main([str(a) for a in argv])


def simulate(tmp_path, out="sim", **kwargs):
    args = {
        "--methods": 10, "--samples": 300, "--seed": 11,
        "--output-dir": tmp_path / out,
    }
    args.update(kwargs)
    argv = ["simulate"]
    for key, value in args.items():
        argv += [key, value]
    assert run(*argv) == 0
    return tmp_path / out


def reference_csv(path, header, columns):
    """The writer ``write_table`` must match: csv.writer over each cell's
    ``.17g`` (floats) or ``str`` text."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([format(c, ".17g") if isinstance(c, float) else str(c)
                             for c in row])


def reference_json(path, header, columns):
    def plain(cell):
        if isinstance(cell, float) and math.isnan(cell):
            return None
        return cell.item() if isinstance(cell, np.generic) else cell

    with open(path, "w") as handle:
        json.dump([{h: plain(c) for h, c in zip(header, row)} for row in zip(*columns)],
                  handle, indent=1)
        handle.write("\n")


def awkward_table(n):
    """Columns of every kind write_table meets, over ``n`` rows."""
    rng = np.random.default_rng(0)
    ids = (["a,b", 'say "hi"', " padded ", "line\nbreak", ""]
           + [f"s{k}" for k in range(n)])[:n]
    floats = np.concatenate([
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324],
        rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n),
    ])[:n]
    mixed = [None, 3, 2.5, np.float64(0.1), np.int64(-7), np.float32(0.1), True,
             np.nan, -np.inf]
    mixed = (mixed * (n // len(mixed) + 1))[:n]
    return (
        ["sample id", 'quote"d', "comma,col", "int8", "int64", "mixed"],
        [tuple(ids), floats, floats[::-1].copy(),
         rng.integers(0, 2, size=n).astype(np.int8),
         rng.integers(-2**62, 2**62, size=n), mixed],
    )


class TestWriteTable:
    @pytest.mark.parametrize("n", [1, 7, 2 * _CHUNK_ROWS + 3])
    def test_csv_bytes_match_csv_writer(self, tmp_path, n):
        header, columns = awkward_table(n)
        write_table(tmp_path / "new.csv", header, columns, "csv")
        reference_csv(tmp_path / "ref.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_csv_round_trips_floats(self, tmp_path):
        values = np.random.default_rng(1).standard_normal((3, 50))
        write_table(tmp_path / "t.csv", ["sample_id", "a", "b", "c"],
                    [[f"s{k}" for k in range(50)], *values], "csv")
        _, _, read = read_matrix_table(tmp_path / "t.csv")
        assert read.tobytes() == values.tobytes()

    def test_json_unchanged(self, tmp_path):
        header, columns = awkward_table(23)
        write_table(tmp_path / "new.json", header, columns, "json")
        reference_json(tmp_path / "ref.json", header, columns)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


class TestSimulate:
    def test_writes_three_tables_and_manifest(self, tmp_path):
        out = simulate(tmp_path)
        for name in ("scores.csv", "labels.csv", "true_aurocs.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["seed"] == 11
        assert set(manifest["outputs"]) == {"scores.csv", "labels.csv", "true_aurocs.csv"}
        assert manifest["duration_s"] >= 0

    def test_deterministic_output_bytes(self, tmp_path):
        a = simulate(tmp_path, out="a")
        b = simulate(tmp_path, out="b")
        for name in ("scores.csv", "labels.csv", "true_aurocs.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_prevalence_rejected(self, tmp_path):
        code = run("simulate", "--seed", 1, "--rho", "0",
                   "--output-dir", tmp_path / "bad")
        assert code != 0

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run("simulate", "--output-dir", tmp_path / "x")
        assert err.value.code != 0

    def test_json_format(self, tmp_path):
        out = simulate(tmp_path, out="j", **{"--format": "json"})
        records = json.loads((out / "scores.json").read_text())
        assert len(records) == 300
        assert set(records[0]) == {"sample_id"} | {f"m{i:02d}" for i in range(10)}

    def test_scores_table_round_trip(self, tmp_path):
        out = simulate(tmp_path)
        method_ids, sample_ids, values = read_matrix_table(out / "scores.csv")
        assert len(method_ids) == 10
        assert values.shape == (10, 300)


class TestInfer:
    def test_report_and_ensembles(self, tmp_path):
        out = simulate(tmp_path, **{"--methods": 12, "--samples": 500})
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--output-dir", inf) == 0
        report = json.loads((inf / "report.json").read_text())
        assert report["n_methods"] == 12
        assert report["rho_source"] == "estimated"
        assert report["lambda_e"] > 0
        assert len(report["methods"]) == 12
        assert {"method_id", "weight", "delta", "auroc", "auroc_raw",
                "recoverability_flag"} <= set(report["methods"][0])
        for name in ("method_estimates.csv", "ensemble_scores.csv",
                     "ensemble_labels.csv", "manifest.json"):
            assert (inf / name).exists()
        manifest = json.loads((inf / "manifest.json").read_text())
        assert len(manifest["input_digests"]) == 1

    def test_balanced_design_infers_near_half(self, tmp_path):
        # at N=1000 the sampling noise keeps beta above the degenerate
        # cutoff, so rho lands near (not exactly on) one half
        out = simulate(tmp_path, **{"--methods": 30, "--samples": 1000, "--seed": 3})
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--output-dir", inf) == 0
        report = json.loads((inf / "report.json").read_text())
        assert report["rho"] == pytest.approx(0.5, abs=0.12)
        assert report["rho_source"] == "estimated"
        assert report["rho_degenerate"] == (report["beta"] < 1e-3)

    def test_supplied_prevalence(self, tmp_path):
        out = simulate(tmp_path, **{"--rho": 0.3, "--seed": 9})
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--prevalence", 0.3,
                   "--output-dir", inf) == 0
        report = json.loads((inf / "report.json").read_text())
        assert report["rho"] == 0.3
        assert report["rho_source"] == "assumed"

    def test_no_tensor_weights_only(self, tmp_path):
        out = simulate(tmp_path)
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--no-tensor",
                   "--output-dir", inf) == 0
        report = json.loads((inf / "report.json").read_text())
        assert report["rho"] is None
        assert report["delta_norm"] is None
        assert "auroc" not in report["methods"][0]
        assert "weight" in report["methods"][0]

    def test_three_methods_rejected(self, tmp_path):
        out = simulate(tmp_path, **{"--methods": 3})
        code = run("infer", out / "scores.csv", "--prevalence", 0.5,
                   "--output-dir", tmp_path / "inf")
        assert code != 0
        manifest = json.loads((tmp_path / "inf" / "manifest.json").read_text())
        assert "error" in manifest

    def test_four_methods_need_prevalence_or_no_tensor(self, tmp_path):
        out = simulate(tmp_path, **{"--methods": 4, "--seed": 1})
        assert run("infer", out / "scores.csv",
                   "--output-dir", tmp_path / "a") != 0
        assert run("infer", out / "scores.csv", "--no-tensor",
                   "--output-dir", tmp_path / "b") == 0

    def test_already_ranked_input(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 50
        ranks = np.array([rng.permutation(np.arange(1, n + 1)) for _ in range(6)])
        table = tmp_path / "ranks.csv"
        with open(table, "w") as handle:
            handle.write("sample_id," + ",".join(f"m{i}" for i in range(6)) + "\n")
            for k in range(n):
                handle.write(f"s{k}," + ",".join(str(int(r)) for r in ranks[:, k]) + "\n")
        inf = tmp_path / "inf"
        assert run("infer", table, "--already-ranked", "--ties", "strict",
                   "--prevalence", "0.4", "--output-dir", inf) == 0
        report = json.loads((inf / "report.json").read_text())
        assert report["n_samples"] == n

    def test_tensor_failure_reports_degenerate_half(self, tmp_path):
        # the tensor stage does not converge on this balanced design
        out = simulate(tmp_path, **{"--methods": 12, "--samples": 400,
                                    "--rho": 0.5, "--seed": 5})
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--output-dir", inf) == 0
        assert not (inf / "error.json").exists()
        report = json.loads((inf / "report.json").read_text())
        assert report["rho"] == 0.5
        assert report["rho_source"] == "estimated"
        assert report["rho_degenerate"] is True
        assert report["lambda_t"] is None
        assert "tensor" not in report
        assert len(report["notes"]) == 1
        assert "error" not in json.loads((inf / "manifest.json").read_text())

    def test_matrix_not_converged_writes_error_json(self, tmp_path):
        out = simulate(tmp_path, **{"--methods": 30, "--samples": 500})
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--max-iter", 1,
                   "--output-dir", inf) == 1
        error = json.loads((inf / "error.json").read_text())
        assert error["error"] == "NotConverged"
        partial = error["partial"]
        assert partial["lambda"] > 0
        assert len(partial["v"]) == 30
        assert partial["iterations"] == 1
        assert partial["residual"] >= 0
        manifest = json.loads((inf / "manifest.json").read_text())
        assert "error" in manifest
        assert "error.json" in manifest["outputs"]

    def test_no_iterations_rejected(self, tmp_path):
        out = simulate(tmp_path)
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--max-iter", 0,
                   "--output-dir", inf) == 1
        manifest = json.loads((inf / "manifest.json").read_text())
        assert "max_iter" in manifest["error"]

    def test_deterministic_outputs(self, tmp_path):
        out = simulate(tmp_path, **{"--methods": 12, "--samples": 400})
        for name in ("a", "b"):
            assert run("infer", out / "scores.csv", "--prevalence", 0.5,
                       "--output-dir", tmp_path / name) == 0
        for name in ("report.json", "method_estimates.csv",
                     "ensemble_scores.csv", "ensemble_labels.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestEvaluate:
    def test_two_ensemble_columns(self, tmp_path):
        out = simulate(tmp_path, **{"--methods": 12, "--samples": 400})
        inf = tmp_path / "inf"
        assert run("infer", out / "scores.csv", "--prevalence", 0.5,
                   "--output-dir", inf) == 0
        ev = tmp_path / "ev"
        assert run("evaluate", "--scores", inf / "ensemble_scores.csv",
                   "--labels", out / "labels.csv", "--output-dir", ev) == 0
        lines = (ev / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "method_id,auroc,n_samples,n_positive"
        assert len(lines) == 3  # summa + woc

    def test_perfect_scores(self, tmp_path):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,good\ns0,4\ns1,3\ns2,2\ns3,1\n")
        labels.write_text("sample_id,label\ns0,1\ns1,1\ns2,0\ns3,0\n")
        ev = tmp_path / "ev"
        assert run("evaluate", "--scores", scores, "--labels", labels,
                   "--output-dir", ev) == 0
        rows = (ev / "metrics.csv").read_text().strip().splitlines()
        assert rows[1].split(",")[1] == "1"

    def test_label_order_realigned(self, tmp_path):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,m\ns0,4\ns1,3\ns2,2\ns3,1\n")
        labels.write_text("sample_id,label\ns3,0\ns2,0\ns1,1\ns0,1\n")
        ev = tmp_path / "ev"
        assert run("evaluate", "--scores", scores, "--labels", labels,
                   "--output-dir", ev) == 0
        rows = (ev / "metrics.csv").read_text().strip().splitlines()
        assert rows[1].split(",")[1] == "1"

    def test_id_mismatch_rejected(self, tmp_path):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,m\ns0,4\ns1,3\n")
        labels.write_text("sample_id,label\nsX,1\nsY,0\n")
        assert run("evaluate", "--scores", scores, "--labels", labels,
                   "--output-dir", tmp_path / "ev") != 0

    def test_single_class_rejected(self, tmp_path):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,m\ns0,4\ns1,3\n")
        labels.write_text("sample_id,label\ns0,1\ns1,1\n")
        assert run("evaluate", "--scores", scores, "--labels", labels,
                   "--output-dir", tmp_path / "ev") != 0

    def test_label_row_without_label_rejected(self, tmp_path):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,m\ns0,4\ns1,3\n")
        labels.write_text("sample_id,label\ns0,1\ns1\n")
        ev = tmp_path / "ev"
        assert run("evaluate", "--scores", scores, "--labels", labels,
                   "--output-dir", ev) == 1
        manifest = json.loads((ev / "manifest.json").read_text())
        assert "labels.csv:3" in manifest["error"]


class TestFailures:
    """Every failure exits 1, records the manifest error and prints one
    stderr line instead of a traceback."""

    @staticmethod
    def assert_reported(out, capsys, command, fragment):
        manifest = json.loads((out / "manifest.json").read_text())
        assert fragment in manifest["error"]
        assert manifest["outputs"] == []
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_infer_input(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        out = tmp_path / "inf"
        assert run("infer", missing, "--output-dir", out) == 1
        self.assert_reported(out, capsys, "infer", str(missing))

    def test_missing_evaluate_scores(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\ns0,1\ns1,0\n")
        missing = tmp_path / "missing.csv"
        out = tmp_path / "ev"
        assert run("evaluate", "--scores", missing, "--labels", labels,
                   "--output-dir", out) == 1
        self.assert_reported(out, capsys, "evaluate", str(missing))

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_not_one_character(self, tmp_path, capsys, delimiter):
        sim = simulate(tmp_path)
        capsys.readouterr()
        out = tmp_path / "inf"
        assert run("infer", sim / "scores.csv", "--delimiter", delimiter,
                   "--output-dir", out) == 1
        self.assert_reported(out, capsys, "infer", "--delimiter")
        assert [path.name for path in out.iterdir()] == ["manifest.json"]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count it
    was asked for and maps in this process."""

    workers: list[int] = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


class TestSweep:
    def test_default_axis_values(self):
        from summa.cli import SWEEP_DEFAULT_VALUES

        assert SWEEP_DEFAULT_VALUES["methods"] == [str(v) for v in range(5, 31)]
        assert len(SWEEP_DEFAULT_VALUES["methods"]) == 26
        assert SWEEP_DEFAULT_VALUES["samples"] == ["30", "250", "1000", "4000"]
        assert len(SWEEP_DEFAULT_VALUES["prevalence"]) == 9

    def test_table_shape_and_summary(self, tmp_path):
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "5,8",
                   "--replicates", 2, "--seed", 4, "--samples", 250,
                   "--output-dir", sw) == 0
        lines = (sw / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2
        header = lines[0].split(",")
        assert header[:5] == ["axis", "value", "replicate", "seed",
                              "corr_inferred_true"]
        summary = (sw / "sweep_summary.csv").read_text().strip().splitlines()
        assert len(summary) == 3

    def test_derived_seeds_deterministic(self, tmp_path):
        for name in ("a", "b"):
            assert run("sweep", "--axis", "prevalence", "--values", "0.3",
                       "--replicates", 2, "--seed", 21, "--methods", 8,
                       "--samples", 300, "--output-dir", tmp_path / name) == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
            (tmp_path / "b" / "sweep.csv").read_bytes()

    def test_parallel_matches_sequential(self, tmp_path):
        common = ["sweep", "--axis", "samples", "--values", "120,250",
                  "--replicates", 2, "--seed", 33, "--methods", 8]
        assert run(*common, "--output-dir", tmp_path / "seq") == 0
        assert run(*common, "--jobs", 2, "--output-dir", tmp_path / "par") == 0
        assert (tmp_path / "seq" / "sweep.csv").read_bytes() == \
            (tmp_path / "par" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (64, 8, [3]),   # no more workers than tasks
        (2, 8, [2]),
        (64, 2, [2]),   # no more workers than processors
        (64, 1, []),    # one processor: serial, no pool
        (1, 8, []),
    ])
    def test_jobs_is_an_upper_bound(self, tmp_path, monkeypatch, jobs, cpus, workers):
        monkeypatch.setattr(RecordingPool, "workers", [])
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        common = ["sweep", "--axis", "methods", "--values", "5,8,12",
                  "--replicates", 1, "--seed", 9, "--samples", 200]
        assert run(*common, "--jobs", jobs, "--output-dir", tmp_path / "par") == 0
        assert RecordingPool.workers == workers
        assert run(*common, "--output-dir", tmp_path / "seq") == 0
        for name in ("sweep.csv", "sweep_summary.csv"):
            assert (tmp_path / "seq" / name).read_bytes() == \
                (tmp_path / "par" / name).read_bytes()

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_no_jobs_rejected(self, tmp_path, jobs):
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "5",
                   "--replicates", 1, "--seed", 1, "--jobs", jobs,
                   "--output-dir", sw) == 1
        manifest = json.loads((sw / "manifest.json").read_text())
        assert "--jobs" in manifest["error"]
        assert manifest["outputs"] == []

    def test_too_few_methods_cell_fails(self, tmp_path):
        # the tensor stage needs 5 methods, so a 4-method cell has no rho;
        # replicate 2 has a working matrix stage, the other two do not
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "4",
                   "--replicates", 3, "--seed", 777,
                   "--output-dir", sw) == 0
        rows = (sw / "sweep.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            cells = row.split(",")
            assert cells[-1] == "2"
            assert cells[4] == "nan"

    def test_all_failed_cell_summary_is_nan_without_warnings(self, tmp_path):
        sw = tmp_path / "sw"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("sweep", "--axis", "methods", "--values", "4,8",
                       "--replicates", 3, "--seed", 777, "--samples", 250,
                       "--output-dir", sw) == 0
        summary = (sw / "sweep_summary.csv").read_text().splitlines()
        assert summary[1] == "methods,4,3,nan,nan,nan,nan,nan,nan"
        # one of the three 8-method replicates is finite: a mean, no spread
        cells = summary[2].split(",")
        assert cells[5] != "nan" and cells[6] == "nan"

    def test_single_failed_replicate_has_zero_se(self, tmp_path):
        sw = tmp_path / "sw"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("sweep", "--axis", "methods", "--values", "4",
                       "--replicates", 1, "--seed", 777,
                       "--output-dir", sw) == 0
        summary = (sw / "sweep_summary.csv").read_text().splitlines()
        assert summary[1] == "methods,4,1,nan,nan,nan,0,nan,0"

    @pytest.mark.parametrize("axis, value", [
        ("methods", "5.5"), ("samples", "many"), ("prevalence", "half"),
    ])
    def test_bad_axis_value_rejected(self, tmp_path, capsys, axis, value):
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", axis, "--values", f"5,{value}",
                   "--replicates", 1, "--seed", 1, "--output-dir", sw) == 1
        manifest = json.loads((sw / "manifest.json").read_text())
        assert value in manifest["error"]
        assert manifest["outputs"] == []
        assert not (sw / "sweep.csv").exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, -3])
    def test_no_replicates_rejected(self, tmp_path, count):
        # a cell without replicates would write a NaN row with a zero standard error
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "5",
                   "--replicates", count, "--seed", 1, "--output-dir", sw) == 1
        manifest = json.loads((sw / "manifest.json").read_text())
        assert "--replicates" in manifest["error"]
        assert manifest["outputs"] == []
        assert not (sw / "sweep_summary.csv").exists()

    def test_repeated_value_rejected(self, tmp_path):
        # a repeated value would merge two cells into one summary row, twice
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "8,5,8",
                   "--replicates", 1, "--seed", 3, "--output-dir", sw) == 1
        manifest = json.loads((sw / "manifest.json").read_text())
        assert "once" in manifest["error"]
        assert not (sw / "sweep.csv").exists()

    def test_failure_writes_manifest(self, tmp_path):
        sw = tmp_path / "sw"
        assert run("sweep", "--axis", "methods", "--values", "5",
                   "--replicates", 1, "--seed", 1, "--rho", 0,
                   "--output-dir", sw) == 1
        manifest = json.loads((sw / "manifest.json").read_text())
        assert "prevalence" in manifest["error"]
        assert manifest["outputs"] == []
