"""Command-line front end: simulate | infer | evaluate | sweep.

Every command writes its outputs plus a ``manifest.json`` echoing the
full configuration, the library version, sha256 digests of any inputs,
and the wall-clock duration, so a run can be reproduced from (inputs,
manifest) alone.  One writer, :class:`ManifestWriter`, writes every
output file and lists it in the manifest, so the list is exactly what
was written.  Data outputs from ``simulate`` and ``infer`` are
byte-identical across reruns with the same seed and inputs.  A command
that fails, by a summa error or an OS error on one of its files, still
writes the manifest, with an ``error`` entry (plus ``error.json`` when
an iteration ran out), prints one line to stderr and exits with code
1; where the output directory or the manifest cannot be made, only the
stderr line and the exit code remain.  The manifest holds each argument
and path as its UTF-8 text, as every JSON file holds every string, and
the stderr line as the bytes typed, whatever the locale.

File formats (all stable), read and written by :mod:`summa.tables`:

* every table and JSON file is UTF-8 text, whatever the locale.
* score/rank tables: header row ``sample_id,<method>,...``; one row per
  sample.  CSV by default, ``--format json`` writes a list of records.
* label tables: header ``sample_id,label`` with labels in {0, 1}.
* floats are serialized with 17 significant digits, so values
  round-trip exactly.
* every JSON file is strict JSON (a non-finite float is ``null``, and a
  string is the UTF-8 text it stands for), indented by one space and
  ends in a newline.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .decomposition import DEFAULT_MAX_ITER, DEFAULT_TOL, check_iteration_controls
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
from .tables import (
    _jsonable,
    _usable_cpus,
    _write_json,
    read_labels_table,
    read_matrix_table,
    write_table,
)

DEFAULT_OUTPUT_DIR_ENV = "SUMMA_OUTPUT_DIR"

# sweep axis -> (the SimulationConfig field it sets, the type of its values)
_SWEEP_AXES = {"methods": ("n_methods", int), "samples": ("n_samples", int),
               "prevalence": ("rho", float)}

SWEEP_DEFAULT_VALUES = {
    "methods": [str(v) for v in range(5, 31)],
    "samples": ["30", "250", "1000", "4000"],
    "prevalence": [f"{v / 10:.1f}" for v in range(1, 10)],
}


def _align_labels(sample_ids, label_ids, labels: LabelVector) -> LabelVector:
    if label_ids == sample_ids:
        return labels
    index = {sid: k for k, sid in enumerate(label_ids)}
    scored = set(sample_ids)
    # a repeated id would pair with whichever label row came last
    for table, ids, distinct in (("scores", sample_ids, scored), ("labels", label_ids, index)):
        if len(distinct) < len(ids):
            sid = next(sid for sid, count in Counter(ids).items() if count > 1)
            raise InvalidInput(f"sample id {sid!r} appears more than once in {table}")
    # the ids are distinct on each side, so they pair up unless one side has an id the other lacks
    unmatched = []
    for table, ids, other in (("scores", sample_ids, index), ("labels", label_ids, scored)):
        sid = next((sid for sid in ids if sid not in other), None)
        if sid is not None:
            unmatched.append(f"{sid!r} is only in {table}")
    if unmatched:
        raise InvalidInput("sample ids of scores and labels do not match: " + "; ".join(unmatched))
    order = [index[sid] for sid in sample_ids]
    return LabelVector(labels.labels[order])


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ManifestWriter:
    """Writes a command's output files into ``output_dir``, lists each
    one, and finally writes ``manifest.json`` over the list."""

    def __init__(self, command: str, args: argparse.Namespace, output_dir: Path):
        self.command = command
        self.output_dir = output_dir
        self.format = args.format
        self.started = time.perf_counter()
        self.started_utc = datetime.now(timezone.utc).isoformat()
        self.config = {key: value for key, value in sorted(vars(args).items()) if key != "func"}
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []

    def add_input(self, path: Path):
        """Digest an input before the command reads it, so an unreadable
        input fails here."""
        self.inputs[str(path)] = _sha256(path)

    def table(self, stem: str, header: list[str], columns: list) -> str:
        """Write ``{stem}.{format}`` with :func:`write_table`; returns its name."""
        name = f"{stem}.{self.format}"
        write_table(self.output_dir / name, header, columns, self.format)
        self.outputs.append(name)
        return name

    def json(self, name: str, payload):
        _write_json(self.output_dir / name, _jsonable(payload))
        self.outputs.append(name)

    def write(self, error: str | None = None):
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
        _write_json(self.output_dir / "manifest.json", _jsonable(manifest))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulation_config(args) -> SimulationConfig:
    return SimulationConfig(
        n_methods=args.methods,
        n_samples=args.samples,
        rho=args.rho,
        auroc_low=args.auroc_low,
        auroc_high=args.auroc_high,
        seed=args.seed,
    )


def cmd_simulate(args, manifest: ManifestWriter) -> str:
    data = simulate_ensemble(_simulation_config(args))
    sample_ids, method_ids = data.scores.sample_ids, data.scores.method_ids
    names = (
        manifest.table("scores", ["sample_id", *method_ids], [sample_ids, *data.scores.values]),
        manifest.table("labels", ["sample_id", "label"], [sample_ids, data.labels.labels]),
        manifest.table("true_aurocs", ["method_id", "auroc"], [method_ids, data.true_aurocs]),
    )
    return f"simulate: wrote {', '.join(names)} to {manifest.output_dir}"


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
    del values  # the parsed table; scores holds its own copy
    return rank_transform(scores, args.ties)


def cmd_infer(args, manifest: ManifestWriter) -> str:
    ranks = _load_rank_matrix(args, manifest)
    result = run_pipeline(ranks, prevalence=args.prevalence, tol=args.tol,
                          max_iter=args.max_iter)
    payload = result.to_dict()
    manifest.json("report.json", payload)

    header = ["method_id", "weight", "recoverability_flag", "delta", "auroc", "auroc_raw"]
    columns = [[entry[name] for entry in payload["methods"]] for name in header]
    columns[2] = [int(flag) for flag in columns[2]]
    manifest.table("method_estimates", header, columns)

    summa, woc = result.summa, result.woc
    manifest.table("ensemble_scores", ["sample_id", "summa", "woc"],
                   [summa.sample_ids, summa.scores, woc.scores])
    manifest.table("ensemble_labels", ["sample_id", "summa", "woc"],
                   [summa.sample_ids, summa.labels, woc.labels])
    return (f"infer: {ranks.n_methods} methods, {ranks.n_samples} samples, "
            f"rho={result.report.rho:.4f}")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(args, manifest: ManifestWriter) -> str:
    scores_path = Path(args.scores)
    labels_path = Path(args.labels)
    manifest.add_input(scores_path)
    manifest.add_input(labels_path)
    method_ids, sample_ids, values = read_matrix_table(scores_path, args.delimiter)
    label_ids, labels = read_labels_table(labels_path, args.delimiter)
    labels = _align_labels(sample_ids, label_ids, labels)
    scores = ScoreMatrix(values, method_ids, sample_ids)
    del values  # the parsed table; scores holds its own copy
    ranks = rank_transform(scores, "strict")
    aurocs = [auroc_rectangle(row, labels) for row in ranks.ranks]

    m = len(method_ids)
    name = manifest.table(
        "metrics",
        ["method_id", "auroc", "n_samples", "n_positive"],
        [method_ids, aurocs, [len(labels)] * m, [labels.n_positive] * m],
    )
    return f"evaluate: wrote {name} ({m} methods)"


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


# the keys of a sweep row, in the order of the sweep table's columns
_SWEEP_COLUMNS = ("axis", "value", "replicate", "seed", "corr_inferred_true", "summa_auroc",
                  "woc_auroc", "best_base_auroc", "rho_true", "rho_inferred", "degraded")


def _sweep_replicate(task) -> dict:
    """One (axis value, replicate) cell: simulate, infer, evaluate.  The
    task is ``(axis, value text, replicate, config, tol, max_iter)``."""
    axis, value, replicate, config, tol, max_iter = task
    data = simulate_ensemble(config)
    ranks = rank_transform(data.scores, "midrank")

    row = dict.fromkeys(_SWEEP_COLUMNS, float("nan"))
    # degraded 2: run_pipeline declined the replicate
    row.update(axis=axis, value=value, replicate=replicate, seed=config.seed,
               best_base_auroc=float(data.true_aurocs.max()), rho_true=config.rho,
               degraded=2)
    try:
        result = run_pipeline(ranks, tol=tol, max_iter=max_iter)
    except SummaError:
        return row
    row.update(
        corr_inferred_true=float(np.corrcoef(result.report.aurocs, data.true_aurocs)[0, 1]),
        summa_auroc=evaluate_ensemble(result.summa, data.labels),
        woc_auroc=evaluate_ensemble(result.woc, data.labels),
        rho_inferred=result.report.rho,
        # 1: the tensor stage measured nothing and run_pipeline assumed rho = 1/2
        degraded=int(result.tensor is None),
    )
    return row


def _cell_stats(x: np.ndarray) -> tuple[float, float, float]:
    """NaN-skipping median, mean and standard error of one sweep cell's
    replicates, the error over the finite ones; NaN, without a
    RuntimeWarning, where too few are finite."""
    finite = np.count_nonzero(~np.isnan(x))
    nan = float("nan")
    median = float(np.nanmedian(x)) if finite else nan
    mean = float(np.nanmean(x)) if finite else nan
    if x.size <= 1:
        se = 0.0
    else:
        se = float(np.nanstd(x, ddof=1) / np.sqrt(finite)) if finite > 1 else nan
    return median, mean, se


def cmd_sweep(args, manifest: ManifestWriter) -> str:
    if args.values is None:
        values = SWEEP_DEFAULT_VALUES[args.axis]
    else:
        values = [v.strip() for v in args.values.split(",") if v.strip()]
        if not values:
            raise InvalidInput(f"--values names no value, got {args.values!r}")
    if args.replicates < 1:
        raise InvalidInput(f"--replicates must be at least 1, got {args.replicates}")
    if args.jobs < 1:
        raise InvalidInput(f"--jobs must be at least 1, got {args.jobs}")
    # the library would reject these in every replicate, as declines
    check_iteration_controls(args.tol, args.max_iter)
    numbers = [_axis_value(args.axis, value) for value in values]
    # by number, not text: 5 and 05 would be one cell run twice
    if len(set(numbers)) != len(numbers):
        raise InvalidInput("--values: each value may appear only once")
    # building every task's config checks it, so an invalid cell fails
    # the sweep before any replicate runs
    field = _SWEEP_AXES[args.axis][0]
    base = _simulation_config(args)
    tasks = [
        (args.axis, value, rep,
         replace(base, **{field: number, "seed": _replicate_seed(args.seed, vi, rep)}),
         args.tol, args.max_iter)
        for vi, (value, number) in enumerate(zip(values, numbers))
        for rep in range(args.replicates)
    ]
    # a fork-started pool launches every worker on its first task
    workers = min(args.jobs, len(tasks), _usable_cpus())
    if workers > 1:
        # imported here, so a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_replicate, tasks, chunksize=4))
    else:
        results = [_sweep_replicate(task) for task in tasks]

    sweep_name = manifest.table(
        "sweep", _SWEEP_COLUMNS, [[row[col] for row in results] for col in _SWEEP_COLUMNS])

    summary_rows = []
    for value in values:
        cell = [row for row in results if row["value"] == value]
        corr, summa, woc = (_cell_stats(np.asarray([row[col] for row in cell]))
                            for col in ("corr_inferred_true", "summa_auroc", "woc_auroc"))
        # (median, mean) of the correlation, (mean, standard error) of each ensemble
        summary_rows.append([args.axis, value, len(cell), *corr[:2], *summa[1:], *woc[1:]])
    manifest.table(
        "sweep_summary",
        ["axis", "value", "n", "corr_median", "corr_mean",
         "summa_mean", "summa_se", "woc_mean", "woc_se"],
        list(zip(*summary_rows)),
    )
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


def _add_iteration_args(parser):
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="tolerance of the matrix (covariance) recovery: it stops "
                             "when a step moves no entry of the unit factor by more than tol/100")
    parser.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                        help="step budget of the matrix (covariance) recovery")


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
    _add_iteration_args(p_inf)
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
    _add_iteration_args(p_sweep)
    _add_sim_config_args(p_sweep)
    _add_common_output_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _error_diagnostics(err: NotConverged) -> dict:
    """The failed iteration's state, for a run that ran out of iterations."""
    diagnostics = {"error": type(err).__name__, "message": str(err)}
    partial = err.partial
    if partial is not None:
        diagnostics["partial"] = {
            "lambda": partial.lambda_,
            "v": [float(x) for x in partial.v],
            "iterations": partial.iterations,
            "residual": partial.residual,
        }
    return diagnostics


def _error_message(err: Exception) -> str:
    if isinstance(err, OSError) and err.filename is not None:
        return f"{err.filename}: {err.strerror or err}"
    return str(err)


def _print_error(line: str):
    """Write ``line`` to stderr in UTF-8, with the bytes the user typed:
    under a non-UTF-8 locale an argument's non-ASCII bytes are lone
    surrogates, which the text stream would write as escapes."""
    sys.stderr.buffer.write(line.encode("utf-8", "surrogateescape") + b"\n")
    sys.stderr.buffer.flush()


def main(argv: list[str] | None = None) -> int:
    """Run one command; every :class:`SummaError` it raises, and every
    ``OSError`` on its files, becomes a manifest ``error``, one stderr
    line and exit code 1.  Where ``manifest.json`` itself cannot be
    written, only the stderr line and the exit code remain."""
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Path(args.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        # no manifest can go where the directory could not be made
        _print_error(f"{args.command}: {out}: {err.strerror or err}")
        return 1
    manifest = ManifestWriter(args.command, args, out)
    error = None
    try:
        delimiter = getattr(args, "delimiter", ",")
        if len(delimiter) != 1:
            raise InvalidInput(f"--delimiter must be one character, got {delimiter!r}")
        if delimiter in '"\r\n':
            raise InvalidInput(f"--delimiter cannot be a quote or a line break, got {delimiter!r}")
        summary = args.func(args, manifest)
    except (SummaError, OSError) as err:
        error = err
    try:
        if isinstance(error, NotConverged):
            manifest.json("error.json", _error_diagnostics(error))
        manifest.write(error=None if error is None else _error_message(error))
    except OSError as err:
        # where the command failed too, its own error is the one reported
        error = error or err
    if error is not None:
        _print_error(f"{args.command}: {_error_message(error)}")
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
