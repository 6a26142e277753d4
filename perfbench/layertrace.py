"""Outside-in layer tracer for the assqd benchmark.

Every traced function is replaced at the name its caller looks it up.
``assqd.driver`` and ``assqd.bench`` import their collaborators by name
(``from assqd.subspace import lowest_eigenpair``), so the driver calls
``assqd.driver.lowest_eigenpair``; patching ``assqd.subspace`` instead
would record nothing.  Methods are patched on their class, which is where
every caller looks them up.

Spans (name, tag, parent, start, end) stay in memory while the run lasts
and are summarized or written out afterwards.  Hot per-state methods are
counted, not timed: a clock read per call would cost more than the call.
Targets that a later version of the package no longer has are skipped and
listed in ``Tracer.missing``, so the benchmark keeps running across
refactors; their metrics then read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

SPAN = "span"
COUNT = "count"


def _pool(counts: Counter, result: Any) -> None:
    counts["acquisition.pool_size"] += len(result)


def _selected(counts: Counter, result: Any) -> None:
    counts["acquisition.selected"] += len(result)


def _dominant(counts: Counter, result: Any) -> None:
    counts["subspace.dominant_states"] += len(result.states)


def _final_subspace(counts: Counter, result: Any) -> None:
    counts["subspace.final_states"] += len(result.final_subspace)


def _size_tag(args: tuple) -> str:
    return f"n{args[0].n}"


# (module, attribute path, metric name, mode, result hook, span tag)
TARGETS: tuple[tuple[str, str, str, str, Callable | None, Callable | None], ...] = (
    ("assqd.bench", "experiment_scaling", "bench.experiment_scaling", SPAN, None, None),
    ("assqd.bench", "prepare_instance", "bench.prepare_instance", SPAN, None, None),
    ("assqd.bench", "make_row", "bench.make_row", SPAN, None, None),
    ("assqd.bench", "build_model", "models.build_model", SPAN, None, None),
    ("assqd.bench", "exact_lowest", "oracle.exact_lowest", SPAN, None, _size_tag),
    ("assqd.bench", "contaminated_distribution",
     "sampling.contaminated_distribution", SPAN, None, None),
    ("assqd.bench", "sample_counts", "sampling.sample_counts", SPAN, None, None),
    ("assqd.bench", "run_standard_sqd", "driver.run", SPAN, _final_subspace, None),
    ("assqd.bench", "run_random_sqd", "driver.run", SPAN, _final_subspace, None),
    ("assqd.bench", "run_as_sqd", "driver.run", SPAN, _final_subspace, None),
    ("assqd.driver", "top_k", "sampling.top_k", SPAN, None, None),
    ("assqd.driver", "build_restricted", "subspace.build_restricted", SPAN, None, None),
    ("assqd.driver", "extend_restricted", "subspace.extend_restricted", SPAN, None, None),
    ("assqd.driver", "lowest_eigenpair", "subspace.lowest_eigenpair", SPAN, None, None),
    ("assqd.driver", "dominant_support", "subspace.dominant_support", SPAN, _dominant, None),
    ("assqd.driver", "generate_candidates",
     "acquisition.generate_candidates", SPAN, None, None),
    # score_two_hop walks its frontier through its own module's binding.
    ("assqd.acquisition", "generate_candidates",
     "acquisition.generate_candidates", SPAN, None, None),
    ("assqd.driver", "score_candidates", "acquisition.score_candidates", SPAN, _pool, None),
    ("assqd.driver", "score_two_hop", "acquisition.score_two_hop", SPAN, _pool, None),
    ("assqd.driver", "select_top_b", "acquisition.select_top_b", SPAN, _selected, None),
    ("assqd.oracle", "apply_hamiltonian", "oracle.apply_hamiltonian", COUNT, None, None),
    ("assqd.pauli", "PauliHamiltonian.diagonal", "pauli.diagonal", COUNT, None, None),
    ("assqd.pauli", "PauliHamiltonian.matrix_element",
     "pauli.matrix_element", COUNT, None, None),
    ("assqd.pauli", "PauliHamiltonian.neighbors", "pauli.neighbors", COUNT, None, None),
    ("assqd.pauli", "PauliHamiltonian._group_amplitude",
     "pauli._group_amplitude", COUNT, None, None),
)


def _resolve(module: str, path: str) -> tuple[Any, str]:
    """Owner object and attribute name for a dotted path in a module."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span recorder and counter; one per traced phase, single-threaded."""

    def __init__(self) -> None:
        # Each span is [name, tag, parent index or -1, start, end].
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _span(self, fn: Callable, name: str, hook: Callable | None,
              tag: Callable | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([name, tag(args) if tag else None,
                          stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][4] = clock()
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def _count(self, fn: Callable, name: str) -> Callable:
        counts = self.counts
        key = f"{name}.calls"

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def patched(self, targets=TARGETS) -> Iterator["Tracer"]:
        """Install every target's wrapper; restore the originals on exit."""
        saved: list[tuple[Any, str, Any, bool]] = []
        try:
            for module, path, name, mode, hook, tag in targets:
                try:
                    owner, attr = _resolve(module, path)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module}.{path}")
                    continue
                own = attr in vars(owner)
                saved.append((owner, attr, vars(owner).get(attr), own))
                wrapper = (self._span(original, name, hook, tag) if mode == SPAN
                           else self._count(original, name))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, own in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms (minus children).

        Tagged spans are also aggregated under ``<name>.<tag>``.
        """
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, tag, _, start, end), inner in zip(self.spans, child):
            for key in (name, f"{name}.{tag}") if tag else (name,):
                entry = out.setdefault(key, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
                entry["calls"] += 1
                entry["ms"] += (end - start) * 1e3
                entry["self_ms"] += (end - start - inner) * 1e3
        return out

    def span_records(self) -> list[dict[str, Any]]:
        """Spans as JSON-ready records, times relative to the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        return [
            {"name": name, "tag": tag, "parent": parent,
             "start_ms": (start - origin) * 1e3, "end_ms": (end - origin) * 1e3}
            for name, tag, parent, start, end in self.spans
        ]
