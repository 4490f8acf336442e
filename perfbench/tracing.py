"""Span recording for the benchmark, kept entirely outside the program.

The benchmark always records one ``op`` span per operation and one
``stage.*`` span per stage inside it; those give the end-to-end
timings.  In a traced run it also rebinds summa's public functions at
the names the *calling* modules imported (``summa.pipeline.
recover_rank1_tensor``, ``summa.cli.write_table``, ...), so each call
into a layer becomes a span with its parent and the operation id.  The
rebinding happens in the benchmark process only and is undone by
:meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from summa.exceptions import NotConverged, SummaError


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _iterations(args, kwargs, result, error):
    """Iteration count from a recovery object, or from the partial
    recovery a NotConverged carries."""
    source = error.partial if isinstance(error, NotConverged) else result
    return {"iterations": getattr(source, "iterations", 0)}


def _third_moment_counts(args, kwargs, result, error):
    # computed, not measured: the number of distinct triples i < j < l
    return {"triples": math.comb(args[0].n_methods, 3)}


def _tensor_counts(args, kwargs, result, error):
    m = len(args[1])
    counts = _iterations(args, kwargs, result, error)
    counts["not_converged"] = int(isinstance(error, NotConverged))
    counts["tensor_bytes"] = 8 * m**3  # computed: one dense float64 M^3 tensor
    return counts


def _pipeline_counts(args, kwargs, result, error):
    # a dotted key names its metric in full: the flag belongs to inference
    return {
        "declined": int(isinstance(error, SummaError)),
        "inference.rho_degenerate": int(result is not None and result.report.rho_degenerate),
    }


def _file_bytes(args, kwargs, result, error):
    # computed from the file size: the CSV bytes this call read or wrote
    return {} if error is not None else {"bytes": os.path.getsize(args[0])}


# (calling module, imported name, layer, count function).  The
# benchmark's own workload module is the calling module named "bench".
WRAP_POINTS = (
    ("bench", "simulate_ensemble", "simulation.simulate_ensemble", None),
    ("bench", "rank_transform", "ranking.rank_transform", None),
    ("bench", "run_pipeline", "pipeline.run_pipeline", _pipeline_counts),
    ("bench", "evaluate_ensemble", "ensemble.evaluate_ensemble", None),
    ("summa.ensemble", "rank_transform", "ranking.rank_transform", None),
    ("summa.ensemble", "auroc_rectangle", "ranking.auroc_rectangle", None),
    ("summa.pipeline", "covariance_matrix", "moments.covariance_matrix", None),
    ("summa.pipeline", "third_moment_offdiag", "moments.third_moment_offdiag",
     _third_moment_counts),
    ("summa.pipeline", "recover_rank1_matrix", "decomposition.recover_rank1_matrix",
     _iterations),
    ("summa.pipeline", "recover_rank1_tensor", "decomposition.recover_rank1_tensor",
     _tensor_counts),
    ("summa.pipeline", "summa_scores", "ensemble.summa_scores", None),
    ("summa.pipeline", "woc_scores", "ensemble.woc_scores", None),
    ("summa.cli", "simulate_ensemble", "simulation.simulate_ensemble", None),
    ("summa.cli", "rank_transform", "ranking.rank_transform", None),
    ("summa.cli", "auroc_rectangle", "ranking.auroc_rectangle", None),
    ("summa.cli", "run_pipeline", "pipeline.run_pipeline", _pipeline_counts),
    ("summa.cli", "read_matrix_table", "cli.read_matrix_table", _file_bytes),
    ("summa.cli", "read_labels_table", "cli.read_labels_table", _file_bytes),
    ("summa.cli", "write_table", "cli.write_table", _file_bytes),
)


class Tracer:
    """Keeps spans in memory; installs and removes the layer wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """Record a span around the block; ``op`` starts a new operation."""
        if op is not None:
            self._op = op
        index = self._open(name)
        try:
            yield self.spans[index]
        except BaseException as err:
            self.spans[index].error = type(err).__name__
            raise
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, parent, self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, func, name, count):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name)
            result = error = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                self.spans[index].error = type(err).__name__
                raise
            finally:
                self._close(index)
                if count is not None:
                    self.spans[index].counts = count(args, kwargs, result, error)

        return traced

    def install(self, bench_module):
        """Rebind every wrap point; ``bench_module`` is the benchmark's
        own calling module."""
        if self._patches:
            return
        for module_name, attr, layer, count in WRAP_POINTS:
            module = (
                bench_module if module_name == "bench"
                else importlib.import_module(module_name)
            )
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, layer, count))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(index)
        return kids

    def self_seconds(self, index: int, kids: dict[int, list[int]]) -> float:
        """Duration minus the time its (sequential) child spans cover."""
        span = self.spans[index]
        return span.seconds - sum(self.spans[k].seconds for k in kids.get(index, ()))

    def to_records(self) -> list[dict]:
        return [
            {
                "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                "op": s.op, "error": s.error, "counts": s.counts,
            }
            for s in self.spans
        ]
