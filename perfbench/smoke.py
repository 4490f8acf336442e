#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes (M=6, N=60).

    python3 perfbench/smoke.py

Exercises the untraced and traced paths of both kinds of workload, the
counting of failed operations and of operations that did not converge,
the agreement of the metric names with BENCHMARK.json, and the refusal
to run in a directory that holds no summa sources.  The CLI chain runs
at M=20, N=200.  Takes about ten seconds; exits non-zero on the first
failed expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def expect(condition, message):
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def quiet_benchmark(workload, trace, out, seed=3):
    """Run a count-bound benchmark (zero seconds); return the result
    object, the printed report and its JSON copy."""
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        result = run.benchmark(workload, seed, 0.0, trace, out, setup_repeats=1)
    json.dumps(result, allow_nan=False)  # the result line must be strict JSON
    saved = out / f"BENCH_{workload.name}_seed{seed}_trace{trace}.json"
    return result, captured.getvalue(), json.loads(saved.read_text())


def check_library(workloads, out):
    tiny = (workloads.Design(6, 60, 0.3), workloads.Design(6, 60, 0.5))
    workload = workloads.LibraryWorkload("tiny_library", tiny, min_ops=4)
    result, _, _ = quiet_benchmark(workload, 0, out)
    expect(result["attempted"] == 4, f"untraced run attempted {result['attempted']}, not 4")
    expect(set(result["metrics"]) == set(run.E2E_UNITS), "untraced metric names")
    expect(result["correct"] == (result["failed"] == 0), "correct must reflect failures")
    expect(result["metrics"]["setup_s"]["value"] > 0, "setup time was not measured")

    result, text, report = quiet_benchmark(workload, 1, out)
    expect(result["attempted"] == 8, "traced run must execute each operation twice")
    expect(set(result["metrics"]) == set(run.LAYER_UNITS), "traced metric names")
    layer = {name: m["value"] for name, m in result["metrics"].items()}
    expect(layer["decomposition.recover_rank1_matrix.s"] > 0, "matrix stage not traced")
    expect(layer["cli.write_table.s"] == 0.0, "library workload must not touch the CLI")
    expect("self-time shares of operation" in text, "traced report lacks self-time shares")

    spans_path = out / "BENCH_tiny_library_seed3_trace1_spans.jsonl"
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    traced_ops = {s["op"] for s in spans if s["name"] == "pipeline.run_pipeline"}
    expect(len(traced_ops) == 4, "traced operations not marked by their spans")
    third = [s for s in spans if s["name"] == "moments.third_moment_offdiag"]
    expect(all(s["counts"]["triples"] == 20 for s in third), "C(6,3) triples per call")
    expect(layer["moments.third_moment_offdiag.triples"] == 20 * len(third) / 4,
           "triples are not averaged per traced operation")
    tensor = [s for s in spans if s["name"] == "decomposition.recover_rank1_tensor"]
    expect(all(s["counts"]["tensor_bytes"] == 8 * 6**3 for s in tensor), "8 M^3 tensor bytes")

    import summa.decomposition
    import summa.pipeline
    expect(summa.pipeline.recover_rank1_tensor is summa.decomposition.recover_rank1_tensor,
           "wrappers left installed after a traced run")


class Scripted:
    """A workload whose operations fail, fail their check, do not
    converge and succeed on a fixed schedule."""

    name = "scripted"
    min_ops = 4

    def __init__(self, workloads):
        self.w = workloads
        self.designs = (workloads.Design(6, 60, 0.3),)

    def design(self, index):
        return self.designs[0]

    def run(self, index, seed, tracer, pause):
        from summa.exceptions import InvalidInput

        with tracer.span("stage.infer"):
            if index == 1:
                raise InvalidInput("injected failure")
        return index

    def check(self, index):
        if index == 2:
            raise self.w.CheckFailed("injected bad output")
        if index == 3:
            return self.w.Outcome(self.designs[0], declined="NotConverged")
        return self.w.Outcome(self.designs[0], auroc_corr=1.0, rho_abs_err=0.0,
                              ensemble_auroc=1.0)

    def close(self):
        pass


def check_failures(workloads, out):
    from summa.exceptions import NotConverged

    result, _, report = quiet_benchmark(Scripted(workloads), 0, out)
    expect(result["attempted"] == 4, "scripted run attempted count")
    expect(result["failed"] == 2, f"expected 2 failed operations, got {report['failures']}")
    expect(result["correct"] is False, "a failed operation must make the run incorrect")
    metrics = report["end_to_end"]["metrics"]
    expect(metrics["error_rate"] == 0.75, "error_rate counts 2 failed and 1 declined in 4")
    expect(metrics["estimated_share"] == 0.5, "estimated_share of 1 in 2 completed")

    def never_converges(ranks, **kwargs):
        raise NotConverged("injected non-convergence")

    original = workloads.run_pipeline
    workloads.run_pipeline = never_converges
    try:
        stalled = workloads.LibraryWorkload(
            "tiny_stalled", (workloads.Design(6, 60, 0.3),), min_ops=2)
        result, _, _ = quiet_benchmark(stalled, 0, out)
    finally:
        workloads.run_pipeline = original
    expect(result["failed"] == 0, "a declined estimate is an outcome, not a failure")
    expect(result["metrics"]["estimated_share"]["value"] == 0.0, "estimated_share of 0 in 2")


def check_cli(workloads, out):
    # the smallest CLI design here on which the tensor stage reliably converges
    workload = workloads.CliWorkload("tiny_cli", workloads.Design(20, 200, 0.3), run.ROOT,
                                     min_ops=2)
    result, text, report = quiet_benchmark(workload, 1, out)
    expect(result["correct"] and result["failed"] == 0, "small CLI chain failed:\n" + text)
    expect(report["digests_agree"] and len(report["infer_output_sha256"]) == 4,
           "infer digests missing or disagreeing")
    layer = {name: m["value"] for name, m in result["metrics"].items()}
    for name in ("cli.read_matrix_table.s", "cli.write_table.s", "cli.read_labels_table.s",
                 "ranking.rank_transform.s", "ranking.auroc_rectangle.s",
                 "cli.read_matrix_table.bytes", "cli.write_table.bytes"):
        expect(layer[name] > 0, f"{name} not traced in the CLI workload")
    expect(text.count("sha256 ") == len(workloads.INFER_OUTPUTS), "infer digests not printed")
    expect(not workload.workdir.exists(), "CLI temporary directory left behind")


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS,
           "BENCHMARK.json end_to_end differs from run.E2E_UNITS")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS,
           "BENCHMARK.json per_layer differs from run.LAYER_UNITS")
    expect([w["name"] for w in spec["workloads"]] == ["replicates", "wide", "cli_tall"],
           "BENCHMARK.json workloads")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(run.__file__).parent, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    expect(done.returncode != 0, "run.py must fail in a directory without sources")
    expect('"metrics"' not in done.stdout, "run.py printed a result without sources")


def main() -> int:
    problem = run.use_checkout_sources()
    expect(problem is None, str(problem))
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as out:
        check_library(workloads, Path(out))
        check_failures(workloads, Path(out))
        check_cli(workloads, Path(out))
    check_benchmark_json()
    check_refuses_without_sources()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
