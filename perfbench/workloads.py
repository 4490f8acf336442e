"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop: one client in one process sends the
next operation only after the previous one has finished.  An operation
runs three stages, each a span: ``simulate`` (draw a seeded ensemble),
``infer`` (ranks -> performance estimates -> ensemble scores) and
``evaluate`` (AUROC of the ensembles against the held-back labels).

The library functions are imported by name into this module so that a
traced run can rebind them here, as it does in summa's own modules.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from summa import cli
from summa.ensemble import evaluate_ensemble
from summa.exceptions import SummaError
from summa.pipeline import run_pipeline
from summa.ranking import rank_transform
from summa.simulation import SimulationConfig, simulate_ensemble

# The data outputs of `summa infer` whose digests must repeat exactly.
INFER_OUTPUTS = ("report.json", "method_estimates.csv", "ensemble_scores.csv",
                 "ensemble_labels.csv")


class CheckFailed(Exception):
    """An operation finished but its output failed a correctness check."""


@dataclass(frozen=True)
class Design:
    methods: int
    samples: int
    rho: float

    def config(self, seed: int) -> SimulationConfig:
        return SimulationConfig(
            n_methods=self.methods, n_samples=self.samples, rho=self.rho, seed=seed
        )


@dataclass
class Outcome:
    """What one operation produced, after its checks passed.

    ``declined`` names the SummaError with which the library declined to
    estimate (NotConverged, NoSignal, ...).  Such an operation completed
    and is not a failure, but it has no estimate and no quality figures.
    """

    design: Design
    declined: str | None = None
    auroc_corr: float | None = None
    rho_abs_err: float | None = None
    ensemble_auroc: float | None = None
    digests: dict[str, str] = field(default_factory=dict)
    csv_bytes: dict[str, int] = field(default_factory=dict)


def op_seed(seed: int, index: int) -> int:
    """Seed of operation ``index``, derived from the workload seed."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _check_quality(outcome: Outcome, aurocs, rho, ensemble_aurocs) -> Outcome:
    aurocs = np.asarray(aurocs, dtype=float)
    if not np.all(np.isfinite(aurocs)):
        raise CheckFailed("estimated AUROCs are not all finite")
    if rho is None or not 0.0 < rho < 1.0:
        raise CheckFailed(f"rho {rho!r} does not lie in (0, 1)")
    for value in ensemble_aurocs:
        if not 0.0 <= value <= 1.0:
            raise CheckFailed(f"ensemble AUROC {value!r} does not lie in [0, 1]")
    outcome.rho_abs_err = abs(rho - outcome.design.rho)
    outcome.ensemble_auroc = float(ensemble_aurocs[0])
    return outcome


class LibraryWorkload:
    """Drives the library: simulate_ensemble -> rank_transform ->
    run_pipeline -> evaluate_ensemble, cycling through ``designs`` with a
    fresh seed per operation."""

    def __init__(self, name, designs, min_ops):
        self.name = name
        self.designs = tuple(designs)
        self.min_ops = min_ops

    def design(self, index: int) -> Design:
        return self.designs[index % len(self.designs)]

    def run(self, index: int, seed: int, tracer, pause):
        """One replicate; its stages are short, so it never pauses."""
        design = self.design(index)
        with tracer.span("stage.simulate"):
            data = simulate_ensemble(design.config(op_seed(seed, index)))
        with tracer.span("stage.infer"):
            ranks = rank_transform(data.scores, "midrank")
            try:
                result = run_pipeline(ranks)
            except SummaError as err:
                return design, data, err, ()
        with tracer.span("stage.evaluate"):
            aurocs = (evaluate_ensemble(result.summa, data.labels),
                      evaluate_ensemble(result.woc, data.labels))
        return design, data, result, aurocs

    def check(self, artifacts) -> Outcome:
        design, data, result, ensemble_aurocs = artifacts
        if isinstance(result, SummaError):
            return Outcome(design, declined=type(result).__name__)
        report = result.report
        outcome = _check_quality(Outcome(design), report.aurocs, report.rho, ensemble_aurocs)
        outcome.auroc_corr = float(np.corrcoef(report.aurocs, data.true_aurocs)[0, 1])
        return outcome

    def close(self):
        pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_column(path: Path, column: str) -> dict[str, str]:
    with open(path, newline="") as handle:
        return {row[next(iter(row))]: row[column] for row in csv.DictReader(handle)}


class CliWorkload:
    """Drives the command line in-process: ``summa simulate -> summa
    infer -> summa evaluate`` on files in a temporary directory.  Every
    operation repeats the same input, so the digests of ``infer``'s data
    outputs must agree across the operations of one run."""

    def __init__(self, name, design, workdir: Path, min_ops):
        self.name = name
        self.designs = (design,)
        self.min_ops = min_ops
        self._tmp = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workdir)
        self.workdir = Path(self._tmp.name)

    def design(self, index: int) -> Design:
        return self.designs[0]

    def _command(self, tracer, stage, argv):
        with tracer.span(f"stage.{stage}"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"summa {stage} exited with code {code}")

    def run(self, index: int, seed: int, tracer, pause):
        """One chain of commands; ``pause()`` between them lets the
        caller time its reference work close to each command."""
        design = self.designs[0]
        opdir = self.workdir / f"op{index}"
        shutil.rmtree(opdir, ignore_errors=True)
        sim, inf, ev = opdir / "simulate", opdir / "infer", opdir / "evaluate"
        self._command(tracer, "simulate", [
            "simulate", "--methods", str(design.methods), "--samples", str(design.samples),
            "--rho", repr(design.rho), "--seed", str(op_seed(seed, 0)),
            "--output-dir", str(sim),
        ])
        pause()
        self._command(tracer, "infer", [
            "infer", str(sim / "scores.csv"), "--output-dir", str(inf),
        ])
        pause()
        self._command(tracer, "evaluate", [
            "evaluate", "--scores", str(inf / "ensemble_scores.csv"),
            "--labels", str(sim / "labels.csv"), "--output-dir", str(ev),
        ])
        return design, opdir

    def check(self, artifacts) -> Outcome:
        design, opdir = artifacts
        try:
            with open(opdir / "infer" / "report.json") as handle:
                report = json.load(handle)
            missing = [key for key in ("rho", "lambda_e", "methods") if key not in report]
            if missing:
                raise CheckFailed(f"report.json lacks {', '.join(missing)}")
            aurocs = [entry.get("auroc_raw", math.nan) for entry in report["methods"]]
            truth = _read_column(opdir / "simulate" / "true_aurocs.csv", "auroc")
            true_aurocs = [float(truth[entry["method_id"]]) for entry in report["methods"]]
            metrics = _read_column(opdir / "evaluate" / "metrics.csv", "auroc")
            ensemble_aurocs = (float(metrics["summa"]), float(metrics["woc"]))
            outcome = _check_quality(Outcome(design), aurocs, report["rho"], ensemble_aurocs)
            outcome.auroc_corr = float(np.corrcoef(aurocs, true_aurocs)[0, 1])
            outcome.digests = {
                name: _sha256(opdir / "infer" / name) for name in INFER_OUTPUTS
            }
            # computed from file sizes: what infer and evaluate read, and
            # what all three commands wrote
            read = (opdir / "simulate" / "scores.csv", opdir / "infer" / "ensemble_scores.csv",
                    opdir / "simulate" / "labels.csv")
            outcome.csv_bytes = {
                "read": sum(path.stat().st_size for path in read),
                "written": sum(path.stat().st_size for path in opdir.glob("*/*.csv")),
            }
        except (OSError, KeyError, ValueError, TypeError) as err:
            raise CheckFailed(f"unreadable output: {type(err).__name__}: {err}") from None
        finally:
            shutil.rmtree(opdir, ignore_errors=True)
        return outcome

    def close(self):
        self._tmp.cleanup()


def build(name: str, workdir: Path):
    """The named workload at its benchmark size.

    * replicates -- the `summa sweep` traffic: many small calls cycling
      through a skewed, a balanced and a small balanced design.
    * wide -- M = 100 methods, where the O(M^3) third-moment and tensor
      stages dominate.
    * cli_tall -- N = 10^5 samples through the CLI, bound by CSV I/O and
      ranking; the tensor stage is a small share.
    """
    if name == "replicates":
        designs = (Design(30, 1000, 0.3), Design(30, 1000, 0.5), Design(12, 400, 0.5))
        return LibraryWorkload(name, designs, min_ops=240)
    if name == "wide":
        return LibraryWorkload(name, (Design(100, 10_000, 0.3),), min_ops=4)
    if name == "cli_tall":
        return CliWorkload(name, Design(30, 100_000, 0.3), workdir, min_ops=2)
    raise ValueError(f"unknown workload {name!r}")

