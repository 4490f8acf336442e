#!/usr/bin/env python3
"""Seeded, layered benchmark of the summa library and command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replicates --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each was chosen): ``replicates``,
``wide`` and ``cli_tall``.  Inputs are generated from ``--seed``; the
program sees only those inputs.  Operations run in a closed loop (one
client, one process) for ``--seconds`` seconds: after the workload's
minimum number of operations, another starts only while it is expected
to end within that time.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs every operation twice, untraced and traced in
alternating order, and reports per-layer metrics from the traced runs
plus the tracing overhead (traced minus untraced median latency).

The human-readable report goes to standard output first, a JSON copy of
it (and, when traced, the spans) to ``--out``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 2 means the checkout holds no
summa sources to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
REFERENCE_EVERY_S = 0.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Reported with tracing off; BENCHMARK.json lists the same names.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_ref": "1/ref",
    "latency_p50_ref": "ref",
    "estimated_share": "share",
    "auroc_corr_median": "corr",
    "ensemble_auroc_mean": "auroc",
}
# Printed beside them but not gated: too few samples, too unsteady on
# this kind of machine, or 0 on some workloads (see NOTES.md).
PRINTED_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "reference_ms": "ms",
    "latency_p95_ms": "ms",
    "simulate_s": "s",
    "infer_s": "s",
    "evaluate_s": "s",
    "error_rate": "share",
    "rho_abs_err_median": "abs",
}
# Reported by the traced run: per-operation means over traced operations.
LAYER_UNITS = {
    "simulation.simulate_ensemble.s": "s",
    "ranking.rank_transform.s": "s",
    "ranking.auroc_rectangle.s": "s",
    "moments.covariance_matrix.s": "s",
    "moments.third_moment_offdiag.s": "s",
    "moments.third_moment_offdiag.triples": "count/op",
    "decomposition.recover_rank1_matrix.s": "s",
    "decomposition.recover_rank1_matrix.iterations": "count/op",
    "decomposition.recover_rank1_tensor.s": "s",
    "decomposition.recover_rank1_tensor.iterations": "count/op",
    "decomposition.recover_rank1_tensor.not_converged": "count/op",
    "decomposition.recover_rank1_tensor.tensor_bytes": "B/op",
    "inference.rho_degenerate": "count/op",
    "ensemble.summa_scores.s": "s",
    "ensemble.woc_scores.s": "s",
    "ensemble.evaluate_ensemble.s": "s",
    "pipeline.run_pipeline.s": "s",
    "pipeline.run_pipeline.self_s": "s",
    "pipeline.run_pipeline.declined": "count/op",
    "cli.read_matrix_table.s": "s",
    "cli.read_matrix_table.bytes": "B/op",
    "cli.read_labels_table.s": "s",
    "cli.write_table.s": "s",
    "cli.write_table.bytes": "B/op",
    "trace.overhead_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("replicates", "wide", "cli_tall"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench-out",
                        help="directory for the JSON report and spans")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> str | None:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "summa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def measure_setup(repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing summa and summa.cli,
    which every CLI call pays."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import summa, summa.cli"], cwd=ROOT,
                       env=env, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def reference_seconds(repeats: int = 3) -> float:
    """Median time of a fixed mix of interpreted and numpy work that no
    change to summa can alter: the yardstick for the machine's speed at
    the moment it runs."""
    import numpy as np

    matrix = np.random.default_rng(0).standard_normal((30, 1000))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i % 7
        for _ in range(20):
            (matrix @ matrix.T).sum()
            np.argsort(matrix[0])
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def drive(workload, seed, seconds, trace, tracer, bench_module):
    """Run the workload's minimum number of operations, then further
    ones while the next is expected to end within ``seconds``.  Between
    operations, at most every REFERENCE_EVERY_S, and wherever a workload
    pauses inside one, time the reference work.  Return the executions
    and the reference times."""
    from workloads import CheckFailed

    executions: list[dict] = []
    references = [reference_seconds()]
    paused = 0.0

    def pause():
        """Time the reference work between the stages of a long
        operation; that time is taken out of the operation's latency."""
        nonlocal paused
        begin = time.perf_counter()
        references.append(reference_seconds())
        paused += time.perf_counter() - begin

    last_reference = start = time.perf_counter()
    index_seconds: list[float] = []
    index = 0
    while index < workload.min_ops or (
        time.perf_counter() - start + statistics.median(index_seconds) <= seconds
    ):
        index_start = time.perf_counter()
        modes = (False,) if not trace else ((False, True) if index % 2 == 0 else (True, False))
        for traced in modes:
            if traced:
                tracer.install(bench_module)
            else:
                tracer.uninstall()
            record = {"index": index, "traced": traced, "op": len(executions),
                      "design": workload.design(index), "span": len(tracer.spans),
                      "failed": None, "outcome": None}
            paused = 0.0
            try:
                with tracer.span("op", op=record["op"]) as span:
                    artifacts = workload.run(index, seed, tracer, pause)
                record["outcome"] = workload.check(artifacts)
            except CheckFailed as err:
                record["failed"] = f"check: {err}"
            except Exception as err:  # an operation failure, counted and reported
                record["failed"] = f"{type(err).__name__}: {err}"
            record["latency_s"] = span.seconds - paused
            executions.append(record)
        index_seconds.append(time.perf_counter() - index_start)
        index += 1
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            references.append(reference_seconds())
            last_reference = time.perf_counter()
    tracer.uninstall()
    references.append(reference_seconds())
    return executions, references


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def stage_seconds(tracer, executions) -> dict[str, list[float]]:
    kids = tracer.children()
    stages = defaultdict(list)
    for record in executions:
        for k in kids.get(record["span"], ()):
            span = tracer.spans[k]
            if span.name.startswith("stage."):
                stages[span.name[len("stage."):]].append(span.seconds)
    return stages


def end_to_end(workload, executions, tracer, setup_times, references) -> dict:
    """End-to-end metrics over the untraced operations.

    Timings are medians per design, averaged over the designs with equal
    weight (the workload cycles through them equally).  The median of
    the pooled operations of several designs would fall between their
    clusters, where it jumps with small shifts.  The ``_ref`` metrics
    express the timings in units of the run's median reference time, so
    that the machine's speed swings cancel out of them.
    """
    runs = [r for r in executions if not r["traced"]]
    ok = [r for r in runs if r["failed"] is None]
    latencies = [r["latency_s"] for r in runs]
    # quality over the operations every run completes, so that it
    # repeats exactly for a given seed
    first = [r["outcome"] for r in ok if r["index"] < workload.min_ops]
    estimated = [o for o in first if o.declined is None]
    declined = [r["outcome"].declined for r in ok if r["outcome"].declined is not None]
    by_design = {}
    for design in workload.designs:
        mine = [r for r in runs if r["design"] == design]
        if mine:
            stages = stage_seconds(tracer, mine)
            by_design[_label(design)] = {
                "operations": len(mine),
                "latency_p50_ms": 1e3 * statistics.median(r["latency_s"] for r in mine),
                **{f"{stage}_s": _median(stages[stage])
                   for stage in ("simulate", "infer", "evaluate")},
                "estimated": sum(r["outcome"] is not None and r["outcome"].declined is None
                                 for r in mine),
            }
    p95, beyond = percentile(latencies, 0.95)
    reference = statistics.median(references)
    ops_per_s = len(runs) / sum(latencies)
    latency_p50_ms = _design_mean(by_design, "latency_p50_ms")
    metrics = {
        "setup_s": _median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_ref": ops_per_s * reference,
        "latency_p50_ref": latency_p50_ms / (1e3 * reference),
        "ops_per_s": ops_per_s,
        "latency_p50_ms": latency_p50_ms,
        "reference_ms": 1e3 * reference,
        "latency_p95_ms": 1e3 * p95 if beyond >= 10 else None,
        "simulate_s": _design_mean(by_design, "simulate_s"),
        "infer_s": _design_mean(by_design, "infer_s"),
        "evaluate_s": _design_mean(by_design, "evaluate_s"),
        "error_rate": (len(runs) - len(ok) + len(declined)) / len(runs),
        "estimated_share": len(estimated) / len(first) if first else None,
        "auroc_corr_median": _median([o.auroc_corr for o in estimated]),
        "rho_abs_err_median": _median([o.rho_abs_err for o in estimated]),
        "ensemble_auroc_mean": statistics.fmean(o.ensemble_auroc for o in estimated)
        if estimated else None,
    }
    samples = {
        "operations": len(runs),
        "latency_p95_samples_beyond": beyond,
        "quality_operations": len(first),
        "quality_estimates": len(estimated),
        "failed": len(runs) - len(ok),
        "declined": dict(Counter(declined)),
        "setup_times_s": setup_times,
        "reference_times": len(references),
    }
    return {"metrics": metrics, "samples": samples, "by_design": by_design}


def _design_mean(by_design, key):
    values = [figures[key] for figures in by_design.values() if figures[key] is not None]
    return statistics.fmean(values) if values else None


def _label(design) -> str:
    return f"M={design.methods},N={design.samples},rho={design.rho}"


def _median(values):
    return statistics.median(values) if values else None


def per_layer(tracer, executions) -> dict:
    """Per-operation means over the traced operations, the self time of
    every span name within each stage, and the tracing overhead."""
    traced = [r for r in executions if r["traced"]]
    untraced = [r for r in executions if not r["traced"]]
    traced_ops = {r["op"] for r in traced}
    kids = tracer.children()
    totals = defaultdict(float)
    self_by_stage = defaultdict(lambda: defaultdict(float))
    stage_total = defaultdict(float)
    for index, span in enumerate(tracer.spans):
        if span.op not in traced_ops or span.name == "op":
            continue
        own = tracer.self_seconds(index, kids)
        stage = _stage_of(tracer, index)
        if span.name.startswith("stage."):
            stage_total[stage] += span.seconds
        else:
            totals[f"{span.name}.s"] += span.seconds
            totals[f"{span.name}.self_s"] += own
            for key, value in span.counts.items():
                totals[key if "." in key else f"{span.name}.{key}"] += value
        self_by_stage[stage][span.name] += own
    n = max(1, len(traced))
    metrics = {name: totals.get(name, 0.0) / n for name in LAYER_UNITS}
    overhead = (statistics.median(r["latency_s"] for r in traced)
                - statistics.median(r["latency_s"] for r in untraced))
    metrics["trace.overhead_ms"] = 1e3 * overhead
    op_seconds = sum(r["latency_s"] for r in traced)
    whole = defaultdict(float)
    for parts in self_by_stage.values():
        for name, seconds in parts.items():
            whole[name] += seconds
    shares = {"operation": _shares(whole, op_seconds)}
    for stage, parts in self_by_stage.items():
        if stage_total[stage] > 0:
            shares[f"stage {stage}"] = _shares(parts, stage_total[stage])
    return {
        "metrics": metrics,
        "self_s_per_op": {name: v / n for name, v in sorted(totals.items())
                          if name.endswith(".self_s")},
        "self_shares": shares,
        "traced_operations": len(traced),
        "overhead_share": overhead / statistics.median(r["latency_s"] for r in untraced),
    }


def _shares(parts, total) -> dict[str, float]:
    return {name: seconds / total for name, seconds in sorted(parts.items(), key=lambda kv: -kv[1])}


def _stage_of(tracer, index) -> str:
    while index is not None:
        span = tracer.spans[index]
        if span.name.startswith("stage."):
            return span.name[len("stage."):]
        index = span.parent
    return "op"


def computed_counts(workload, executions) -> dict:
    """Sizes that follow from the inputs alone, labelled computed."""
    counts = {
        _label(d): {
            "third_moment_triples_C(M,3)": math.comb(d.methods, 3),
            "dense_tensor_bytes_8*M^3": 8 * d.methods**3,
        }
        for d in workload.designs
    }
    csv_bytes = [r["outcome"].csv_bytes for r in executions
                 if r["outcome"] is not None and r["outcome"].csv_bytes]
    if csv_bytes:
        counts["csv_bytes_per_op_from_file_sizes"] = csv_bytes[0]
    return counts


def digests(executions) -> tuple[dict, bool]:
    seen = [r["outcome"].digests for r in executions
            if r["outcome"] is not None and r["outcome"].digests]
    return (seen[0] if seen else {}), all(d == seen[0] for d in seen)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _fmt(value, unit) -> str:
    return "n/a" if value is None else f"{value!r} {unit}"


def use_checkout_sources() -> str | None:
    """Put this checkout's src/ first on sys.path; return why not, if not."""
    if not (SRC / "summa" / "__init__.py").is_file():
        return f"no summa sources under {SRC}; nothing to benchmark"
    sys.path.insert(0, str(SRC))
    import summa

    if not Path(summa.__file__).resolve().is_relative_to(SRC):
        return f"summa imported from {summa.__file__}, not from {SRC}"
    return None


def benchmark(workload, seed, seconds, trace, out: Path, setup_repeats=SETUP_REPEATS) -> dict:
    """Run one workload, print the report, and return the result object
    whose JSON is the last line of standard output."""
    import tracing
    import workloads

    env = environment(seed)
    setup_times = [] if trace else measure_setup(setup_repeats)
    tracer = tracing.Tracer()
    try:
        executions, references = drive(workload, seed, seconds, trace, tracer, workloads)
    finally:
        workload.close()

    e2e = end_to_end(workload, executions, tracer, setup_times, references)
    layers = per_layer(tracer, executions) if trace else None
    infer_digests, digests_agree = digests(executions)
    failures = [r["failed"] for r in executions if r["failed"] is not None]
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, 1 client, 1 process",
        "environment": env,
        "end_to_end": e2e,
        "per_layer": layers,
        "computed": computed_counts(workload, executions),
        "infer_output_sha256": infer_digests,
        "digests_agree": digests_agree,
        "failures": failures[:20],
    }

    print(f"perfbench {workload.name} seed={seed} seconds={seconds} "
          f"trace={trace} ({report['loop']})")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"end-to-end, tracing off ({e2e['samples']['operations']} operations):")
    units = E2E_UNITS | PRINTED_UNITS
    for name, value in e2e["metrics"].items():
        print(f"  {name:<22} {_fmt(value, units[name])}")
    print("  samples: " + json.dumps(e2e["samples"]))
    for label, figures in e2e["by_design"].items():
        print(f"  design {label}: " + json.dumps(figures))
    print("computed (not measured): " + json.dumps(report["computed"]))
    for name, digest in infer_digests.items():
        print(f"sha256 {name} {digest}")
    if layers is not None:
        print(f"per-layer, traced ({layers['traced_operations']} operations, mean per op):")
        for name, value in layers["metrics"].items():
            print(f"  {name:<50} {_fmt(value, LAYER_UNITS[name])}")
        print(f"  tracing overhead share of untraced p50: {layers['overhead_share']!r}")
        print("  self time per op (s): " + ", ".join(
            f"{k[:-len('.self_s')]} {v:.4g}" for k, v in layers["self_s_per_op"].items()))
        for stage, shares in layers["self_shares"].items():
            top = ", ".join(f"{k} {v:.1%}" for k, v in list(shares.items())[:6])
            print(f"  self-time shares of {stage}: {top}")
    for failure in failures[:5]:
        print(f"failed: {failure}")
    if not digests_agree:
        print("failed: infer output digests differ between repeats of the same input")

    out.mkdir(parents=True, exist_ok=True)
    stem = f"BENCH_{workload.name}_seed{seed}_trace{trace}"
    with open(out / f"{stem}.json", "w") as handle:
        json.dump(report, handle, indent=1, default=str)
        handle.write("\n")
    if trace:
        with open(out / f"{stem}_spans.jsonl", "w") as handle:
            for record in tracer.to_records():
                handle.write(json.dumps(record) + "\n")

    chosen = LAYER_UNITS if trace else E2E_UNITS
    source = layers["metrics"] if trace else e2e["metrics"]
    return {
        "correct": not failures and digests_agree,
        "attempted": len(executions),
        "failed": len(failures),
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in chosen.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = use_checkout_sources()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.build(args.workload, ROOT)
    result = benchmark(workload, args.seed, args.seconds, args.trace, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
