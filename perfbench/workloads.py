"""The three benchmark workloads, built only from assqd's public functions.

Each workload is a closed loop in one process: the next call starts when
the previous one returns.  The constructor is the set-up; ``units`` lists
the timed calls of one pass, each returning one Cell per driver call.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable

EXPAND_MODELS = (("heisenberg", 12), ("heisenberg", 14), ("tfim", 12), ("tfim", 14))
DEFAULT_CELLS = (
    ("standard", 1), ("random", 1), ("as-en", 1), ("as-coupling_only", 1),
    ("as-denom_only", 1), ("as-diag_only", 1), ("as-en", 2),
)
WIDE_CELLS = (("as-en", 1),)
DEFAULT_BUDGET = {"K": 50, "B": 20, "T": 10}
# The reference configuration: 850 states, most of the n = 12 ground sector.
WIDE_BUDGET = {"K": 50, "B": 100, "T": 8}

# Reference kernels (run.ReferenceKernel: Python loop iterations, eigh
# calls, matrix order), each doing the kind of work its workload's time is
# spent in.  Sweep-cold: dense eigh and Lanczos on 1k to 65k states, which a
# slow spell slows less than interpreted code.  Expand: interpreted Pauli
# and scoring code with small restricted eigensolves.
SWEEP_REFERENCE = (0, 2, 300)
EXPAND_REFERENCE = (20_000, 8, 120)

SWEEP_KIND = "heisenberg"
SWEEP_SIZES = (10, 12)
SWEEP_LARGE = 16
# The n = 16 cell is one fixed instance: its Lanczos matvec count varies
# from 156 to 231 between disorder seeds, which would swamp the sweep time.
SWEEP_LARGE_SEED = 0


@dataclass
class Cell:
    """One driver call: its sweep key, row (None if it raised) and latency."""

    key: tuple
    row: Any
    latency_ms: float
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.row is None or self.row.terminated.startswith("error")


class SweepCold:
    """``bench.experiment_scaling`` as ``assqd bench`` runs it, oracle cold.

    One unit per size: Heisenberg n = 10 and 12 (dense oracle) on the run's
    disorder seed, and the fixed n = 16 cell (Lanczos oracle); methods
    standard, random and as-en at the default budget.  No oracle cache, so
    every unit solves its instances again.
    """

    reference = SWEEP_REFERENCE

    def __init__(self, assqd: Any, seeds: tuple[int, ...]):
        self.bench = assqd.bench
        spec = self.bench.ExperimentSpec
        self.specs = [spec(kind=SWEEP_KIND, sizes=(n,), seeds=seeds) for n in SWEEP_SIZES]
        self.specs.append(
            spec(kind=SWEEP_KIND, sizes=(SWEEP_LARGE,), seeds=(SWEEP_LARGE_SEED,))
        )
        if any(getattr(s, "workers", 1) != 1 for s in self.specs):
            raise RuntimeError("the benchmark needs one sweep worker")

    def units(self) -> list[Callable[[], list[Cell]]]:
        return [functools.partial(self._sweep, spec) for spec in self.specs]

    def _sweep(self, spec: Any) -> list[Cell]:
        try:
            rows, _ = self.bench.experiment_scaling(spec)
        except Exception as exc:  # the whole sweep call failed
            return [
                Cell((spec.kind, n, seed, m, 1), None, 0.0, repr(exc))
                for n in spec.sizes for seed in spec.seeds
                for m in self.bench.SCALING_METHODS
            ]
        # The row's wall_ms is the driver's own timer around the call.
        return [Cell((r.model, r.n, r.seed, r.method, r.hops), r, r.wall_ms)
                for r in rows]


class Expand:
    """Driver calls on instances prepared in setup (oracle + counts).

    One unit per (instance, method).  The reference pairs come from the
    matrix-free route at both sizes: a dense n = 12 solve would be most of
    the set-up and is measured by sweep-cold already.  ``prepare_instance``
    then samples the counts from them through its oracle cache, exactly as
    a cached sweep does.
    """

    reference = EXPAND_REFERENCE

    def __init__(self, assqd: Any, seeds: tuple[int, ...],
                 cells: tuple, budget: dict[str, int], models: tuple = EXPAND_MODELS):
        self.bench = bench = assqd.bench
        self.run_config = assqd.driver.RunConfig
        self.cells = cells
        self.budget = budget
        self.bundles = []
        for seed in seeds:
            for kind, n in models:
                spec = assqd.models.ModelSpec(kind=kind, n=n, seed=seed)
                ham, disorder = bench.build_model(spec)
                key = bench.instance_key(bench.metadata_record(spec, disorder))
                cache = {key: bench.exact_lowest(ham, method="lanczos")}
                self.bundles.append(bench.prepare_instance(
                    kind, n, seed, bench.default_shots(n), bench.DEFAULT_ETA, cache
                ))

    def units(self) -> list[Callable[[], list[Cell]]]:
        return [functools.partial(self._call, bundle, method, hops)
                for bundle in self.bundles for method, hops in self.cells]

    def _call(self, bundle: Any, method: str, hops: int) -> list[Cell]:
        bench = self.bench
        spec = bundle.spec
        config = self.run_config(**self.budget, hops=hops, seed=spec.seed)
        key = (spec.kind, spec.n, spec.seed, method, hops)
        start = time.perf_counter()
        try:
            row, _ = bench.make_row(bundle, method, config,
                                    bench.default_shots(spec.n), bench.DEFAULT_ETA)
        except Exception as exc:  # counted as failed, never fatal
            return [Cell(key, None, 0.0, repr(exc))]
        return [Cell(key, row, (time.perf_counter() - start) * 1e3)]


def make_workload(name: str, assqd: Any, seeds: tuple[int, ...]) -> Any:
    if name == "sweep-cold":
        return SweepCold(assqd, seeds)
    if name == "expand-default":
        return Expand(assqd, seeds, DEFAULT_CELLS, DEFAULT_BUDGET)
    if name == "expand-wide":
        return Expand(assqd, seeds, WIDE_CELLS, WIDE_BUDGET)
    raise ValueError(f"unknown workload {name!r}")
