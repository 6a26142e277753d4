"""Run orchestration: subspace seeding, iterative expansion, traces.

One loop serves every method.  run_as_sqd seeds the subspace from the
top-K observed bitstrings, then repeats T times: solve the restricted
problem, take the dominant support, score its candidate frontier under
the configured kind, and add the best B.  The support carries the
solution and the frontier its support, so each step hands on one object,
and no call takes a value the package can derive.  Both horizons take
one path: the step scores generate_candidates(dominant, hops), which is
Frontier(dominant, hops), with score_candidates(kind, frontier, ...).
At hops=2 that path is spelled score_two_hop(kind, dominant, ...), the
one line score_candidates(kind, generate_candidates(dominant, 2), ...),
whose name the benchmark's layer tracer (perfbench/layertrace.py) times
on its own.  The picked states join the restricted matrix by
extend_restricted(sol.matrix, picked.states), which evaluates their
diagonals and amplitudes from the matrix's own H.  The
kind is the only difference between methods: "standard" makes zero
expansions, "random" ranks candidates by seeded uniform draws, and the
acquisition kinds rank by the EN score or one of its ablations.
run_standard_sqd and run_random_sqd are one-line shorthands for those
kinds, and method_label/method_kind map a kind to the label that rows
and traces carry ("standard", "random", "as-<kind>") and back.  Counts
must be on H's qubit count.  H goes only to build_restricted: the loop
keeps one RestrictedSolution, which holds the restricted matrix, its
subspace and its H, and reads them from it.  Each solve after an
extension starts from a guess, the last ground vector followed
by each picked state's first-order amplitude nu_k / gap_k, from its
scored coupling and gap, which Lanczos reaches the new ground pair from
in fewer products than from its seeded vector (the dense route ignores it).
Every solve appends a trace record, each built by one helper, so the
energy trajectory is observable after the fact, and the run's final
energy is its last record's; the loop ends early, with the reason
recorded, when the candidate pool comes up empty.  trace_record turns a
trace and its config, plus the reference EigenpairSet when there is one,
into the JSON-ready record that `assqd run` and `assqd ingest` print; it
computes err, the distance of the final energy from e0, by floor_err,
which refuses a final energy below e0 by more than rounding; the sweeps'
make_row calls it too.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from assqd.acquisition import (
    ACQUISITION_KINDS,
    DEFAULT_EPS,
    generate_candidates,
    score_candidates,
    score_two_hop,
    select_top_b,
)
from assqd.oracle import EigenpairSet, residual_bound
from assqd.pauli import PauliHamiltonian
from assqd.sampling import CountsMultiset, top_k
from assqd.subspace import (
    RestrictedSolution,
    Subspace,
    build_restricted,
    dominant_support,
    extend_restricted,
    lowest_eigenpair,
)

# Loop variants: "standard" makes no expansion, the rest score candidates.
METHOD_KINDS = ("standard",) + ACQUISITION_KINDS

TERMINATION_BUDGET = "budget"
TERMINATION_EMPTY = "empty-candidates"


@dataclass(frozen=True)
class RunConfig:
    """Expansion-loop parameters."""

    K: int = 50
    B: int = 20
    T: int = 10
    tau: float = 1e-4
    eps: float = DEFAULT_EPS
    kind: str = "en"
    hops: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.K < 1 or self.B < 1 or self.T < 1:
            raise ValueError("K, B, and T must all be >= 1")
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau must be in [0, 1), got {self.tau}")
        if not 0.0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        if self.hops not in (1, 2):
            raise ValueError(f"hops must be 1 or 2, got {self.hops}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class IterationRecord:
    """One solve: index 0 is the initial subspace, then one per expansion."""

    iteration: int
    energy: float
    subspace_size: int
    pool_size: int
    wall_ms: float


@dataclass(frozen=True)
class RunTrace:
    """Full history of one run."""

    method: str
    records: tuple[IterationRecord, ...]
    final_subspace: Subspace
    termination: str

    def __post_init__(self) -> None:
        energies = [r.energy for r in self.records]
        for earlier, later in zip(energies, energies[1:]):
            if later > earlier + 1e-12 * max(1.0, abs(earlier)):
                raise ValueError("trace energies must be non-increasing")

    @property
    def final_energy(self) -> float:
        return self.records[-1].energy


class RunError(RuntimeError):
    """A solver failure mid-run; carries the records completed so far."""

    def __init__(self, message: str, records: tuple[IterationRecord, ...]):
        super().__init__(message)
        self.records = records


def floor_err(trace: RunTrace, e0: float) -> float:
    """The final energy's distance from e0, refused below the variational floor.

    A subspace energy never lies below the exact ground energy but by
    rounding, so the floor is e0 - residual_bound(|e0|): 1e-9 below e0 up
    to |e0| ~ 7.0e4, which covers every built-in model, and a stable
    solver's rounding floor above it (Heisenberg n = 8, seed 3, scaled by
    1e8 reaches the whole space 5e-7 below e0 = -1.47e9).  The RunError
    carries the run's records.
    """
    if trace.final_energy < e0 - residual_bound(abs(e0)):
        raise RunError(
            f"variational floor violated: E_est={trace.final_energy!r} < E0={e0!r}",
            trace.records,
        )
    return abs(trace.final_energy - e0)


def method_label(kind: str) -> str:
    """The method label that rows and traces carry for a loop kind."""
    if kind not in METHOD_KINDS:
        raise ValueError(f"unknown method kind {kind!r}")
    return kind if kind in ("standard", "random") else f"as-{kind}"


def method_kind(label: str) -> str:
    """Inverse of :func:`method_label`."""
    for kind in METHOD_KINDS:
        if method_label(kind) == label:
            return kind
    raise ValueError(f"unknown method {label!r}")


def run_standard_sqd(
    ham: PauliHamiltonian, counts: CountsMultiset, K: int
) -> RunTrace:
    """Solve once on the top-K observed states; no expansion."""
    return run_as_sqd(ham, counts, RunConfig(K=K, kind="standard"))


def run_random_sqd(
    ham: PauliHamiltonian, counts: CountsMultiset, config: RunConfig
) -> RunTrace:
    """The same loop with candidate scores drawn uniformly at random."""
    return run_as_sqd(ham, counts, dataclasses.replace(config, kind="random"))


def _record(
    iteration: int, sol: RestrictedSolution, pool_size: int, start: float
) -> IterationRecord:
    """The record of one solve, its wall time counted from ``start``."""
    return IterationRecord(
        iteration=iteration,
        energy=sol.energy,
        subspace_size=len(sol.subspace),
        pool_size=pool_size,
        wall_ms=(time.perf_counter() - start) * 1e3,
    )


def run_as_sqd(
    ham: PauliHamiltonian, counts: CountsMultiset, config: RunConfig
) -> RunTrace:
    """The expansion loop, run as the configured kind, on counts of H's qubit count."""
    if counts.n != ham.n:
        raise ValueError(f"counts are for n={counts.n} but the Hamiltonian has n={ham.n}")
    start = time.perf_counter()
    matrix = build_restricted(ham, Subspace(top_k(counts, config.K)))
    try:
        sol = lowest_eigenpair(matrix)
    except Exception as exc:
        raise RunError(f"initial solve failed: {exc}", ()) from exc
    records = [_record(0, sol, 0, start)]
    # Child seeds for the random variant come from one master stream, so
    # each iteration draws fresh but the whole run is pinned by config.seed.
    rng_master = np.random.default_rng(config.seed)
    termination = TERMINATION_BUDGET
    expansions = 0 if config.kind == "standard" else config.T
    for it in range(1, expansions + 1):
        start = time.perf_counter()
        try:
            dominant = dominant_support(sol, config.tau)
            rng_seed = (
                int(rng_master.integers(0, 2**63)) if config.kind == "random" else None
            )
            if config.hops == 2:
                scored = score_two_hop(config.kind, dominant, config.eps, rng_seed)
            else:
                cands = generate_candidates(dominant)
                scored = score_candidates(config.kind, cands, config.eps, rng_seed)
            if len(scored):
                picked = select_top_b(scored, config.B)
                matrix = extend_restricted(sol.matrix, picked.states)
                guess = np.concatenate([sol.coefficients, picked.coupling / picked.gap])
                # nu is complex even for a real H; ARPACK's real driver
                # takes a real start vector.
                sol = lowest_eigenpair(matrix, guess.real if ham.is_real else guess)
        except Exception as exc:
            raise RunError(
                f"iteration {it} failed: {exc}", tuple(records)
            ) from exc
        records.append(_record(it, sol, len(scored), start))
        if len(scored) == 0:
            termination = TERMINATION_EMPTY
            break
    return RunTrace(
        method=method_label(config.kind),
        records=tuple(records),
        final_subspace=sol.subspace,
        termination=termination,
    )


def trace_record(
    trace: RunTrace,
    config: RunConfig,
    model_metadata: dict[str, Any] | None = None,
    pairs: EigenpairSet | None = None,
) -> dict[str, Any]:
    """A run as a JSON-ready record: config, records, reference and error.

    Without reference pairs, every reference field and err are null;
    with them, a run below the variational floor is refused.
    """
    return {
        "method": trace.method,
        "config": dataclasses.asdict(config),
        "model": model_metadata,
        "records": [dataclasses.asdict(r) for r in trace.records],
        "final_energy": trace.final_energy,
        "final_subspace": trace.final_subspace.states.tolist(),
        "termination": trace.termination,
        "reference": {
            key: getattr(pairs, key, None) for key in ("e0", "e1", "degenerate_ground")
        },
        "err": None if pairs is None else floor_err(trace, pairs.e0),
    }
