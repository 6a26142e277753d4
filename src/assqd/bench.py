"""Benchmark sweeps: scaling, ablations, hop horizon; rows as CSV.

Every (model, n, seed) instance is prepared once — disorder, Hamiltonian,
reference eigenpairs, contaminated counts — and all methods in a sweep
run on those identical counts, so cross-method comparisons are paired.
Rows carry the full parameterization; medians aggregate over seeds.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import statistics
import warnings
from dataclasses import dataclass
from typing import Any, Iterable

# The sweeps run every method through run_as_sqd.  run_standard_sqd and
# run_random_sqd are imported only because the benchmark's layer tracer
# (perfbench/layertrace.py) wraps them at this module.
from assqd.driver import (  # noqa: F401
    RunConfig,
    RunError,
    RunTrace,
    method_kind,
    run_as_sqd,
    run_random_sqd,
    run_standard_sqd,
)
from assqd.models import ModelSpec, build_model, metadata_record
from assqd.oracle import ORACLE_MAX_QUBITS, EigenpairSet, exact_lowest
from assqd.pauli import PauliHamiltonian
from assqd.sampling import CountsMultiset, contaminated_distribution, sample_counts

DEFAULT_SEEDS = (0, 1, 2, 3, 4)
DEFAULT_ETA = 0.2

SCALING_METHODS = ("standard", "random", "as-en")
ABLATION_METHODS = ("as-en", "as-coupling_only", "as-denom_only", "as-diag_only")

HOPS_THRESHOLD = 1e-6


def default_shots(n: int) -> int:
    """2000 shots up to n = 10, 3000 for the larger sizes."""
    return 2000 if n <= 10 else 3000


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a model family crossed with sizes and disorder seeds."""

    kind: str
    sizes: tuple[int, ...]
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    shots: int | None = None
    eta: float = DEFAULT_ETA
    # The loop budget (K, B, T, tau, eps) of every cell; each cell sets its
    # own kind, hops and seed on a copy of it.
    budget: RunConfig = RunConfig()

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("sizes must be nonempty")
        if any(not 2 <= n <= ORACLE_MAX_QUBITS for n in self.sizes):
            raise ValueError(f"sizes must lie within [2, {ORACLE_MAX_QUBITS}]")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be at least 1, got {self.shots}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie within [0, 1], got {self.eta}")
        # Rows are keyed by (n, seed), so a repeat would collapse its rows.
        for name, values in (("sizes", self.sizes), ("seeds", self.seeds)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {values}")
        # Before the sweep: ModelSpec refuses an unknown kind or a negative seed.
        for n in self.sizes:
            for seed in self.seeds:
                ModelSpec(kind=self.kind, n=n, seed=seed)


@dataclass(frozen=True)
class ResultRow:
    """One sweep cell; the field order is the CSV column order."""

    model: str
    n: int
    seed: int
    method: str
    hops: int
    shots: int
    eta: float
    K: int
    B: int
    T: int
    tau: float
    eps: float
    E_est: float
    E0: float
    E1: float
    err: float
    iters: int
    subspace_size: int
    wall_ms: float
    terminated: str


CSV_COLUMNS = tuple(field.name for field in dataclasses.fields(ResultRow))


@dataclass(frozen=True)
class InstanceBundle:
    """Everything shared by all methods at one (model, n, seed) cell."""

    spec: ModelSpec
    ham: PauliHamiltonian
    pairs: EigenpairSet
    counts: CountsMultiset


def instance_key(metadata: dict[str, Any]) -> str:
    """Stable hash of the model metadata, for oracle caching."""
    return hashlib.sha256(
        json.dumps(metadata, sort_keys=True).encode()
    ).hexdigest()[:16]


def prepare_instance(
    kind: str,
    n: int,
    seed: int,
    shots: int,
    eta: float,
    oracle_cache: dict[str, EigenpairSet] | None = None,
) -> InstanceBundle:
    """Build the Hamiltonian, solve the reference pair, sample counts."""
    spec = ModelSpec(kind=kind, n=n, seed=seed)
    ham, disorder = build_model(spec)
    key = instance_key(metadata_record(spec, disorder))
    cache = {} if oracle_cache is None else oracle_cache
    if key not in cache:
        cache[key] = exact_lowest(ham)
    pairs = cache[key]
    if pairs.degenerate_ground:
        warnings.warn(
            f"degenerate ground space for {kind} n={n} seed={seed}; "
            "the contamination mixture is ambiguous",
            stacklevel=2,
        )
    model = contaminated_distribution(pairs.psi0, pairs.psi1, eta)
    counts = sample_counts(model, shots, seed=seed)
    return InstanceBundle(spec=spec, ham=ham, pairs=pairs, counts=counts)


def make_row(
    bundle: InstanceBundle,
    method: str,
    config: RunConfig,
    shots: int,
    eta: float,
) -> tuple[ResultRow, RunTrace | None]:
    """Run one cell and fold the trace into a table row.

    Solver failures do not abort a sweep: the row records NaN energies
    and terminated = "error", with no trace.
    """
    common = dict(
        model=bundle.spec.kind,
        n=bundle.spec.n,
        seed=bundle.spec.seed,
        method=method,
        hops=config.hops,
        shots=shots,
        eta=eta,
        K=config.K,
        B=config.B,
        T=config.T,
        tau=config.tau,
        eps=config.eps,
        E0=bundle.pairs.e0,
        E1=bundle.pairs.e1,
    )
    try:
        trace = run_as_sqd(
            bundle.ham, bundle.counts, dataclasses.replace(config, kind=method_kind(method))
        )
    except RunError as exc:
        row = ResultRow(
            E_est=math.nan, err=math.nan, iters=0, subspace_size=0,
            wall_ms=0.0, terminated=f"error: {exc}", **common,
        )
        return row, None
    e_est = trace.final_energy
    if e_est < bundle.pairs.e0 - 1e-9:
        raise AssertionError(
            f"variational floor violated: E_est={e_est!r} < E0={bundle.pairs.e0!r}"
        )
    row = ResultRow(
        E_est=e_est,
        err=abs(e_est - bundle.pairs.e0),
        iters=trace.records[-1].iteration,
        subspace_size=len(trace.final_subspace),
        wall_ms=sum(r.wall_ms for r in trace.records),
        terminated=trace.termination,
        **common,
    )
    return row, trace


def _sorted_rows(rows: Iterable[ResultRow]) -> list[ResultRow]:
    return sorted(rows, key=lambda r: (r.model, r.n, r.seed, r.method, r.hops))


CellKey = tuple[str, int, int, str, int]


def _sweep(
    spec: ExperimentSpec, methods: tuple[str, ...], hops: tuple[int, ...] = (1,)
) -> tuple[list[ResultRow], dict[CellKey, RunTrace], dict[tuple[int, int], InstanceBundle]]:
    """Run a full grid; returns sorted rows plus per-cell traces/bundles."""
    bundles: dict[tuple[int, int], InstanceBundle] = {}
    shots_for: dict[int, int] = {}
    for n in spec.sizes:
        shots_for[n] = spec.shots if spec.shots is not None else default_shots(n)
        for seed in spec.seeds:
            bundles[(n, seed)] = prepare_instance(
                spec.kind, n, seed, shots_for[n], spec.eta
            )
    rows: list[ResultRow] = []
    traces: dict[CellKey, RunTrace] = {}
    for (n, seed), bundle in bundles.items():
        for method in methods:
            for h in hops:
                config = dataclasses.replace(spec.budget, hops=h, seed=seed)
                row, trace = make_row(bundle, method, config, shots_for[n], spec.eta)
                rows.append(row)
                if trace is not None:
                    traces[(spec.kind, n, seed, method, h)] = trace
    return _sorted_rows(rows), traces, bundles


def _medians(rows: list[ResultRow]) -> list[dict[str, Any]]:
    grouped: dict[tuple[str, int, str, int], list[float]] = {}
    for row in rows:
        if math.isnan(row.err):
            # Failed cells stay visible in the table but cannot aggregate.
            continue
        grouped.setdefault((row.model, row.n, row.method, row.hops), []).append(
            row.err
        )
    return [
        {
            "model": model,
            "n": n,
            "method": method,
            "hops": hops,
            "median_err": statistics.median(errs),
        }
        for (model, n, method, hops), errs in sorted(grouped.items())
    ]


def experiment_scaling(
    spec: ExperimentSpec,
) -> tuple[list[ResultRow], list[dict[str, Any]]]:
    """SCALING_METHODS across sizes on identical per-instance counts."""
    rows, _, _ = _sweep(spec, SCALING_METHODS)
    return rows, _medians(rows)


def experiment_ablation(
    spec: ExperimentSpec,
) -> tuple[list[ResultRow], list[dict[str, Any]]]:
    """ABLATION_METHODS compared; all variants share each instance.

    Identical seeding is checked directly: every variant's initial solve
    lands on the same subspace, hence the same first-record energy.
    """
    rows, traces, _ = _sweep(spec, ABLATION_METHODS)
    first_energy: dict[tuple[int, int], float] = {}
    for (model, n, seed, method, h), trace in traces.items():
        e_init = trace.records[0].energy
        known = first_energy.setdefault((n, seed), e_init)
        if e_init != known:
            raise AssertionError(
                f"variants disagree on the initial solve at n={n} seed={seed}"
            )
    return rows, _medians(rows)


def iterations_to_threshold(trace: RunTrace, e0: float) -> int | None:
    """First iteration whose energy is within HOPS_THRESHOLD of e0, if any."""
    for record in trace.records:
        if abs(record.energy - e0) <= HOPS_THRESHOLD:
            return record.iteration
    return None


def experiment_hops(
    spec: ExperimentSpec,
) -> tuple[list[ResultRow], list[dict[str, Any]]]:
    """Paired 1-hop vs 2-hop arms with iterations-to-threshold medians.

    A failed cell keeps its error row and its place in the arm's list, as
    None, and is left out of the arm's median, which is None when no cell
    of the arm finished.
    """
    rows, traces, bundles = _sweep(spec, ("as-en",), hops=(1, 2))
    stats: list[dict[str, Any]] = []
    for n in sorted(set(spec.sizes)):
        per_arm: dict[int, list[float | None]] = {1: [], 2: []}
        for seed in spec.seeds:
            e0 = bundles[(n, seed)].pairs.e0
            for h in (1, 2):
                trace = traces.get((spec.kind, n, seed, "as-en", h))
                if trace is None:
                    per_arm[h].append(None)
                    continue
                reached = iterations_to_threshold(trace, e0)
                per_arm[h].append(math.inf if reached is None else float(reached))
        finished = {h: [x for x in iters if x is not None] for h, iters in per_arm.items()}
        stats.append(
            {
                "model": spec.kind,
                "n": n,
                "threshold": HOPS_THRESHOLD,
                "median_iters_1hop": statistics.median(finished[1]) if finished[1] else None,
                "median_iters_2hop": statistics.median(finished[2]) if finished[2] else None,
                "iters_1hop": per_arm[1],
                "iters_2hop": per_arm[2],
            }
        )
    return rows, stats


def rows_to_csv(rows: list[ResultRow]) -> str:
    """Header plus one line per row, in CSV_COLUMNS order.

    Values are written as ``str`` gives them; a field holding a comma or a
    quote (an error message in ``terminated``) is quoted, so every row
    parses back through :class:`csv.DictReader` with all its columns.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(dataclasses.astuple(row) for row in rows)
    return buf.getvalue()
