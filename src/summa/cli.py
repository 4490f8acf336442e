"""Command-line front end: simulate | infer | evaluate | sweep.

Every command writes its outputs plus a ``manifest.json`` echoing the
full configuration, the library version, sha256 digests of any inputs,
and the wall-clock duration, so a run can be reproduced from (inputs,
manifest) alone.  Data outputs from ``simulate`` and ``infer`` are
byte-identical across reruns with the same seed and inputs.  A command
that fails still writes the manifest, with an ``error`` entry (plus
``error.json`` when an iteration ran out), prints one line to stderr
and exits with code 1.

File formats (all stable):

* score/rank tables: header row ``sample_id,<method>,...``; one row per
  sample.  CSV by default, ``--format json`` writes a list of records.
* label tables: header ``sample_id,label`` with labels in {0, 1}.
* floats are serialized with 17 significant digits, so values
  round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import evaluate_ensemble
from .exceptions import InvalidInput, NotConverged, SummaError
from .pipeline import run_pipeline
from .ranking import (
    LabelVector,
    RankMatrix,
    ScoreMatrix,
    auroc_rectangle,
    rank_transform,
)
from .simulation import SimulationConfig, simulate_ensemble

DEFAULT_OUTPUT_DIR_ENV = "SUMMA_OUTPUT_DIR"

# sweep axis -> (the SimulationConfig field it sets, the type of its values)
_SWEEP_AXES = {"methods": ("n_methods", int), "samples": ("n_samples", int),
               "prevalence": ("rho", float)}

SWEEP_DEFAULT_VALUES = {
    "methods": [str(v) for v in range(5, 31)],
    "samples": ["30", "250", "1000", "4000"],
    "prevalence": [f"{v / 10:.1f}" for v in range(1, 10)],
}


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
_CHUNK_ROWS = 4096


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _quoted(text: str) -> str:
    """A CSV cell as ``csv.writer`` quotes it (QUOTE_MINIMAL)."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _jsonable(value):
    if isinstance(value, float) and np.isnan(value):
        return None
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _csv_column(column):
    """The ``%`` spec of one column and the cells it formats: float64 and
    integer arrays format in the row's one ``%`` string, any other cell
    becomes its quoted text first."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return "%.17g", column
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return "%d", column
    text = [_fmt(cell) for cell in column]
    # one search over the whole column; the common id column needs no quotes
    if _NEEDS_QUOTES.search("".join(text)):
        text = [_quoted(cell) for cell in text]
    return "%s", text


def _as_list(cells):
    """Python scalars for array cells, so no numpy scalar is ever made."""
    return cells.tolist() if isinstance(cells, np.ndarray) else cells


def write_table(path: Path, header: list[str], columns: list, fmt: str):
    """Write equal-length ``columns`` (sequences or 1-D arrays) under
    ``header``.  CSV goes out ``_CHUNK_ROWS`` rows at a time, byte for
    byte what ``csv.writer`` writes for the cells' ``_fmt`` text."""
    if fmt == "csv":
        specs, cells = zip(*(_csv_column(column) for column in columns))
        line = ",".join(specs) + "\r\n"
        with open(path, "w", newline="") as handle:
            handle.write(",".join(_quoted(name) for name in header) + "\r\n")
            for start in range(0, len(cells[0]), _CHUNK_ROWS):
                chunk = [_as_list(c[start:start + _CHUNK_ROWS]) for c in cells]
                handle.write("".join([line % row for row in zip(*chunk)]))
    else:
        records = [
            {col: _jsonable(cell) for col, cell in zip(header, row)}
            for row in zip(*(_as_list(column) for column in columns))
        ]
        with open(path, "w") as handle:
            json.dump(records, handle, indent=1)
            handle.write("\n")


def _table_name(stem: str, fmt: str) -> str:
    return f"{stem}.{fmt}"


def read_matrix_table(path: Path, delimiter: str = ","):
    """Read a sample-by-method table: header of method ids, first column
    of sample ids, numeric cells."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInput(f"{path}: empty table") from None
        if len(header) < 2:
            raise InvalidInput(f"{path}: need a sample-id column plus method columns")
        method_ids = tuple(h.strip() for h in header[1:])
        sample_ids = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InvalidInput(f"{path}:{lineno}: expected {len(header)} cells")
            sample_ids.append(row[0].strip())
            try:
                rows.append([float(cell) for cell in row[1:]])
            except ValueError as err:
                raise InvalidInput(f"{path}:{lineno}: {err}") from None
    if not rows:
        raise InvalidInput(f"{path}: no data rows")
    values = np.asarray(rows, dtype=float).T  # -> methods x samples
    return method_ids, tuple(sample_ids), values


def read_labels_table(path: Path, delimiter: str = ","):
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise InvalidInput(f"{path}: expected 'sample_id,label' table")
        sample_ids = []
        labels = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise InvalidInput(f"{path}:{lineno}: expected a sample id and a label")
            sample_ids.append(row[0].strip())
            try:
                labels.append(int(row[1]))
            except ValueError as err:
                raise InvalidInput(f"{path}:{lineno}: {err}") from None
    return tuple(sample_ids), LabelVector(np.asarray(labels))


def _align_labels(sample_ids, label_ids, labels: LabelVector) -> LabelVector:
    if label_ids == sample_ids:
        return labels
    index = {sid: k for k, sid in enumerate(label_ids)}
    missing = [sid for sid in sample_ids if sid not in index]
    if missing or len(label_ids) != len(sample_ids):
        raise InvalidInput(
            f"sample ids of scores and labels do not match "
            f"({len(missing)} ids missing from labels)"
        )
    order = [index[sid] for sid in sample_ids]
    return LabelVector(labels.labels[order])


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ManifestWriter:
    def __init__(self, command: str, args: argparse.Namespace, output_dir: Path):
        self.command = command
        self.output_dir = output_dir
        self.started = time.perf_counter()
        self.started_utc = datetime.now(timezone.utc).isoformat()
        skip = {"func"}
        self.config = {
            key: (str(value) if isinstance(value, Path) else value)
            for key, value in sorted(vars(args).items())
            if key not in skip
        }
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []

    def add_input(self, path: Path):
        """Digest an input before the command reads it, so an unreadable
        input fails here as an :class:`InvalidInput`."""
        try:
            self.inputs[str(path)] = _sha256(path)
        except OSError as err:
            raise InvalidInput(f"{path}: {err.strerror or err}") from None

    def add_output(self, name: str):
        self.outputs.append(name)

    def write(self, error: str | None = None) -> Path:
        manifest = {
            "command": self.command,
            "version": __version__,
            "seed": self.config.get("seed"),
            "config": self.config,
            "input_digests": self.inputs,
            "outputs": self.outputs,
            "started_utc": self.started_utc,
            "duration_s": time.perf_counter() - self.started,
        }
        if error is not None:
            manifest["error"] = error
        path = self.output_dir / "manifest.json"
        with open(path, "w") as handle:
            json.dump(manifest, handle, indent=1)
            handle.write("\n")
        return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args, out: Path, manifest: ManifestWriter) -> str:
    config = SimulationConfig(
        n_methods=args.methods,
        n_samples=args.samples,
        rho=args.rho,
        auroc_low=args.auroc_low,
        auroc_high=args.auroc_high,
        seed=args.seed,
    )
    data = simulate_ensemble(config)

    scores_name = _table_name("scores", args.format)
    sample_ids, method_ids = data.scores.sample_ids, data.scores.method_ids
    write_table(
        out / scores_name,
        ["sample_id", *method_ids],
        [sample_ids, *data.scores.values],
        args.format,
    )
    labels_name = _table_name("labels", args.format)
    write_table(
        out / labels_name, ["sample_id", "label"], [sample_ids, data.labels.labels],
        args.format,
    )
    aurocs_name = _table_name("true_aurocs", args.format)
    write_table(
        out / aurocs_name, ["method_id", "auroc"], [method_ids, data.true_aurocs],
        args.format,
    )
    for name in (scores_name, labels_name, aurocs_name):
        manifest.add_output(name)
    return f"simulate: wrote {scores_name}, {labels_name}, {aurocs_name} to {out}"


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def _load_rank_matrix(args, manifest: ManifestWriter) -> RankMatrix:
    path = Path(args.input)
    manifest.add_input(path)
    method_ids, sample_ids, values = read_matrix_table(path, args.delimiter)
    if args.already_ranked:
        return RankMatrix(values, args.ties, method_ids, sample_ids)
    scores = ScoreMatrix(values, method_ids, sample_ids)
    return rank_transform(scores, args.ties)


def _write_infer_outputs(out: Path, result, args, manifest: ManifestWriter):
    report = result.report
    payload = report.to_dict()
    payload["recovery"] = {
        "iterations": result.recovery.iterations,
        "converged": result.recovery.converged,
        "residual": result.recovery.residual,
    }
    if result.tensor is not None:
        payload["tensor"] = {
            "iterations": result.tensor.iterations,
            "converged": result.tensor.converged,
            "residual": result.tensor.residual,
        }
    with open(out / "report.json", "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    manifest.add_output("report.json")

    methods_name = _table_name("method_estimates", args.format)
    header = ["method_id", "weight", "recoverability_flag"]
    if report.deltas is not None:
        header += ["delta", "auroc", "auroc_raw"]
    entries = payload["methods"]
    columns = [[entry[name] for entry in entries] for name in header]
    columns[2] = [int(flag) for flag in columns[2]]
    write_table(out / methods_name, header, columns, args.format)
    manifest.add_output(methods_name)

    sample_ids = result.summa.sample_ids
    scores_name = _table_name("ensemble_scores", args.format)
    write_table(
        out / scores_name,
        ["sample_id", "summa", "woc"],
        [sample_ids, result.summa.scores, result.woc.scores],
        args.format,
    )
    manifest.add_output(scores_name)
    labels_name = _table_name("ensemble_labels", args.format)
    write_table(
        out / labels_name,
        ["sample_id", "summa", "woc"],
        [sample_ids, result.summa.labels, result.woc.labels],
        args.format,
    )
    manifest.add_output(labels_name)


def cmd_infer(args, out: Path, manifest: ManifestWriter) -> str:
    ranks = _load_rank_matrix(args, manifest)
    result = run_pipeline(
        ranks,
        prevalence=args.prevalence,
        use_tensor=not args.no_tensor,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    _write_infer_outputs(out, result, args, manifest)
    rho = result.report.rho
    rho_text = "n/a" if rho is None else f"{rho:.4f}"
    return f"infer: {ranks.n_methods} methods, {ranks.n_samples} samples, rho={rho_text}"


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(args, out: Path, manifest: ManifestWriter) -> str:
    scores_path = Path(args.scores)
    labels_path = Path(args.labels)
    manifest.add_input(scores_path)
    manifest.add_input(labels_path)
    method_ids, sample_ids, values = read_matrix_table(scores_path, args.delimiter)
    label_ids, labels = read_labels_table(labels_path, args.delimiter)
    labels = _align_labels(sample_ids, label_ids, labels)
    scores = ScoreMatrix(values, method_ids, sample_ids)
    ranks = rank_transform(scores, "strict")
    aurocs = [auroc_rectangle(row, labels) for row in ranks.ranks]

    metrics_name = _table_name("metrics", args.format)
    m = len(method_ids)
    write_table(
        out / metrics_name,
        ["method_id", "auroc", "n_samples", "n_positive"],
        [method_ids, aurocs, [len(labels)] * m, [labels.n_positive] * m],
        args.format,
    )
    manifest.add_output(metrics_name)
    return f"evaluate: wrote {metrics_name} ({m} methods)"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _replicate_seed(base_seed: int, value_index: int, replicate: int) -> int:
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(value_index, replicate))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _axis_value(axis: str, text: str):
    """The number a ``--values`` entry sets on the simulation config;
    ``cmd_sweep`` checks every entry before it builds a task."""
    try:
        return _SWEEP_AXES[axis][1](text)
    except ValueError:
        raise InvalidInput(f"--values: {text!r} is not a valid {axis} value") from None


def _sweep_replicate(task) -> dict:
    """One (axis value, replicate) cell: simulate, infer, evaluate."""
    axis, value, value_index, replicate, base, tol, max_iter = task
    config_kwargs = {
        "n_methods": base["methods"],
        "n_samples": base["samples"],
        "rho": base["rho"],
        "auroc_low": base["auroc_low"],
        "auroc_high": base["auroc_high"],
    }
    config_kwargs[_SWEEP_AXES[axis][0]] = _axis_value(axis, value)
    seed = _replicate_seed(base["seed"], value_index, replicate)
    config = SimulationConfig(seed=seed, **config_kwargs)
    data = simulate_ensemble(config)
    ranks = rank_transform(data.scores, "midrank")

    try:
        result = run_pipeline(ranks, tol=tol, max_iter=max_iter)
    except SummaError:
        return {
            "axis": axis, "value": value, "replicate": replicate, "seed": seed,
            "corr_inferred_true": float("nan"), "summa_auroc": float("nan"),
            "woc_auroc": float("nan"),
            "best_base_auroc": float(data.true_aurocs.max()),
            "rho_true": config.rho, "rho_inferred": float("nan"), "degraded": 2,
        }

    aurocs = result.report.aurocs
    corr = float(np.corrcoef(aurocs, data.true_aurocs)[0, 1])
    return {
        "axis": axis,
        "value": value,
        "replicate": replicate,
        "seed": seed,
        "corr_inferred_true": corr,
        "summa_auroc": evaluate_ensemble(result.summa, data.labels),
        "woc_auroc": evaluate_ensemble(result.woc, data.labels),
        "best_base_auroc": float(data.true_aurocs.max()),
        "rho_true": config.rho,
        "rho_inferred": result.report.rho,
        # 1: the tensor stage failed and run_pipeline assumed rho = 1/2
        "degraded": int(result.tensor is None),
    }


def _cell_stats(x: np.ndarray) -> tuple[float, float, float]:
    """NaN-skipping median, mean and standard error of one sweep cell's
    replicates; NaN, without a RuntimeWarning, where too few are finite."""
    finite = np.count_nonzero(~np.isnan(x))
    nan = float("nan")
    median = float(np.nanmedian(x)) if finite else nan
    mean = float(np.nanmean(x)) if finite else nan
    if x.size <= 1:
        se = 0.0
    else:
        se = float(np.nanstd(x, ddof=1) / np.sqrt(x.size)) if finite > 1 else nan
    return median, mean, se


def cmd_sweep(args, out: Path, manifest: ManifestWriter) -> str:
    values = args.values.split(",") if args.values else SWEEP_DEFAULT_VALUES[args.axis]
    values = [v.strip() for v in values if v.strip()]
    base = {
        "methods": args.methods,
        "samples": args.samples,
        "rho": args.rho,
        "auroc_low": args.auroc_low,
        "auroc_high": args.auroc_high,
        "seed": args.seed,
    }
    if args.replicates < 1:
        raise InvalidInput(f"--replicates must be at least 1, got {args.replicates}")
    if args.jobs < 1:
        raise InvalidInput(f"--jobs must be at least 1, got {args.jobs}")
    for value in values:
        _axis_value(args.axis, value)
    if len(set(values)) != len(values):
        raise InvalidInput("--values: each value may appear only once")
    tasks = [
        (args.axis, value, vi, rep, base, args.tol, args.max_iter)
        for vi, value in enumerate(values)
        for rep in range(args.replicates)
    ]
    # a fork-started pool launches every worker on its first task
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_replicate, tasks, chunksize=4))
    else:
        results = [_sweep_replicate(task) for task in tasks]
    results.sort(key=lambda row: (values.index(row["value"]), row["replicate"]))

    header = [
        "axis", "value", "replicate", "seed", "corr_inferred_true",
        "summa_auroc", "woc_auroc", "best_base_auroc",
        "rho_true", "rho_inferred", "degraded",
    ]
    sweep_name = _table_name("sweep", args.format)
    write_table(
        out / sweep_name,
        header,
        [[row[col] for row in results] for col in header],
        args.format,
    )
    manifest.add_output(sweep_name)

    summary_rows = []
    for value in values:
        cell = [row for row in results if row["value"] == value]
        corr_median, corr_mean, _ = _cell_stats(
            np.asarray([row["corr_inferred_true"] for row in cell]))
        _, summa_mean, summa_se = _cell_stats(np.asarray([row["summa_auroc"] for row in cell]))
        _, woc_mean, woc_se = _cell_stats(np.asarray([row["woc_auroc"] for row in cell]))
        summary_rows.append([args.axis, value, len(cell), corr_median, corr_mean,
                             summa_mean, summa_se, woc_mean, woc_se])
    summary_name = _table_name("sweep_summary", args.format)
    header = ["axis", "value", "n", "corr_median", "corr_mean",
              "summa_mean", "summa_se", "woc_mean", "woc_se"]
    write_table(
        out / summary_name,
        header,
        [[row[k] for row in summary_rows] for k in range(len(header))],
        args.format,
    )
    manifest.add_output(summary_name)
    return f"sweep: {len(results)} rows over {len(values)} values -> {sweep_name}"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common_output_args(parser):
    parser.add_argument(
        "--output-dir",
        default=os.environ.get(DEFAULT_OUTPUT_DIR_ENV, "summa_output"),
        help="directory for outputs (env %s overrides the default)"
        % DEFAULT_OUTPUT_DIR_ENV,
    )
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="tabular output format",
    )


def _add_sim_config_args(parser):
    parser.add_argument("--methods", type=int, default=30, help="number of base methods")
    parser.add_argument("--samples", type=int, default=1000, help="number of samples")
    parser.add_argument("--rho", type=float, default=0.5, help="positive-class prevalence")
    parser.add_argument("--auroc-low", type=float, default=0.4)
    parser.add_argument("--auroc-high", type=float, default=0.8)
    parser.add_argument("--seed", type=int, required=True, help="64-bit unsigned seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="summa",
        description="Unsupervised performance estimation and weighted rank "
        "aggregation for binary-classifier ensembles.",
    )
    parser.add_argument("--version", action="version", version=f"summa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic ensemble")
    _add_sim_config_args(p_sim)
    _add_common_output_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_inf = sub.add_parser("infer", help="estimate performances from a score table")
    p_inf.add_argument("input", help="delimited sample-by-method score table")
    p_inf.add_argument("--ties", choices=("midrank", "strict"), default="midrank",
                       help="tie policy for the rank transform")
    p_inf.add_argument("--already-ranked", action="store_true",
                       help="input cells are ranks, skip the rank transform")
    p_inf.add_argument("--prevalence", type=float, default=None,
                       help="known positive-class prevalence (skips tensor estimate of rho)")
    p_inf.add_argument("--no-tensor", action="store_true",
                       help="skip the third-moment stage entirely")
    p_inf.add_argument("--tol", type=float, default=1e-6)
    p_inf.add_argument("--max-iter", type=int, default=1000)
    p_inf.add_argument("--delimiter", default=",")
    _add_common_output_args(p_inf)
    p_inf.set_defaults(func=cmd_infer)

    p_eval = sub.add_parser("evaluate", help="AUROC of score columns against labels")
    p_eval.add_argument("--scores", required=True, help="sample-by-method score table")
    p_eval.add_argument("--labels", required=True, help="sample_id,label table")
    p_eval.add_argument("--delimiter", default=",")
    _add_common_output_args(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="replicate experiments along one axis")
    p_sweep.add_argument("--axis", choices=tuple(_SWEEP_AXES), required=True)
    p_sweep.add_argument("--values", default=None,
                         help="comma-separated axis values (defaults per axis)")
    p_sweep.add_argument("--replicates", type=int, default=50)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="at most this many parallel worker processes")
    p_sweep.add_argument("--tol", type=float, default=1e-6)
    p_sweep.add_argument("--max-iter", type=int, default=1000)
    _add_sim_config_args(p_sweep)
    _add_common_output_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _write_error_json(out: Path, err: NotConverged):
    """The failed iteration's state, for a run that ran out of iterations."""
    diagnostics = {"error": type(err).__name__, "message": str(err)}
    partial = err.partial
    if partial is not None and hasattr(partial, "lambda_"):
        diagnostics["partial"] = {
            "lambda": partial.lambda_,
            "v": [float(x) for x in partial.v],
            "iterations": partial.iterations,
            "residual": partial.residual,
        }
    with open(out / "error.json", "w") as handle:
        json.dump(diagnostics, handle, indent=1)


def main(argv: list[str] | None = None) -> int:
    """Run one command; every :class:`SummaError` it raises becomes a
    manifest ``error``, one stderr line and exit code 1."""
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = ManifestWriter(args.command, args, out)
    try:
        if len(getattr(args, "delimiter", ",")) != 1:
            raise InvalidInput(f"--delimiter must be one character, got {args.delimiter!r}")
        summary = args.func(args, out, manifest)
    except SummaError as err:
        if isinstance(err, NotConverged):
            _write_error_json(out, err)
            manifest.add_output("error.json")
        manifest.write(error=str(err))
        print(f"{args.command}: {err}", file=sys.stderr)
        return 1
    manifest.write()
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
