"""Candidate generation and perturbation-theoretic scoring.

Candidates are the Hamiltonian-connected frontier of the dominant support
D, as a :class:`Frontier`: D itself, the ascending int64 candidate
states, and for every (state of D, off-diagonal mask) pair the index of
the state it steps to among them, or -1 where that state is in the
subspace.  Each candidate k gets the second-order score

    a(k) = |nu_k|^2 / |gap_k|,   nu_k = sum_{s in D} c_s <k|H|s>,
    gap_k = E_S - H_kk with its size floored at eps and its sign kept

whose signed counterpart |nu_k|^2 / gap_k is the usual Epstein-Nesbet
energy correction.  Ablation variants keep one factor each
(coupling_only, denom_only, diag_only) and the random variant ranks by a
seeded uniform draw.  One :class:`CandidateScores` of aligned arrays holds
them, the gap too, which every consumer reads from there.

``Frontier(dominant, hops=1)`` takes only the support it steps from and
its horizon, 1 or 2, and derives its states and pairs when it is made,
so no frontier can disagree with its support; ``generate_candidates(
dominant, hops=1)`` is that call.  The horizon experiment's 2-hop
frontier also keeps where each 1-hop state lies in it and where that
state's steps land.  :func:`score_candidates` is the one scorer, for a
frontier of either horizon: every kind scores both alike, except that
under "en" the pure 2-hop states, whose nu is zero, get a chained
stand-in from the nu and gap it has just formed, read through those
two maps.  :func:`score_two_hop` is the one line
``score_candidates(kind, generate_candidates(dominant, 2), eps,
rng_seed)``.  Both frontiers come from :func:`_outside`, which finds the
distinct states stepped to outside the subspace, ascending, and every
pair's index among them; it is the one place that chooses marks or a
sort.  Up to MARK_MAX_QUBITS = 16 qubits it reads a 2^n mark array of
them and a 2^n map from state to index, with no sort; past that it
sorts, with one ``np.unique(..., return_inverse=True)`` whose inverse
gives every pair its index, and tests the distinct states against the
subspace with :meth:`Subspace.positions`.  Both paths give the same
arrays, byte for byte.  Every target steps from a state of D by one or
two of H's masks, all in [0, 2^n), and only targets outside the
subspace are kept, so a frontier needs no check of its own.

A support carries its solution and a frontier its support, so each
function takes one object and reads the solution, its matrix and H
through it: ``generate_candidates(dominant, hops)``,
``coupling_map(frontier)``, ``score_candidates(kind, frontier, eps,
rng_seed)`` and ``score_two_hop(kind, dominant, eps, rng_seed)``; a
frontier is scored only against the support it was stepped from.  A
:class:`DominantSupport` refuses, when it is made, a row outside the
subspace or rows that are not strictly ascending.

:func:`coupling_map` gives nu by summing every (state, mask) term of D
into the candidate its pair index names, reading D's amplitudes from the
restricted matrix's table by D's rows.  The tests hold it equal, bit for
bit, to their literal per-candidate sum, ``coupling``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from assqd.subspace import DominantSupport, RestrictedMatrix

ACQUISITION_KINDS = ("en", "coupling_only", "denom_only", "diag_only", "random")

DEFAULT_EPS = 1e-8

# The frontier's set operations read 2^n mark arrays up to this many
# qubits and sort past it.  On recorded as-en frontiers the marks take
# 16-35 us a call against 62-95 us sorted at n = 10-16 (1-hop) and 22-91
# against 97-402 us (2-hop); they still lead at n = 18, and their 2^n cost
# loses to the sort at n = 20 (1-hop) and 22 (both).  16 is the largest n
# a workload runs, where the mark array takes 64 KB and the index map
# 512 KB (BENCH_dense_frontier.json).
MARK_MAX_QUBITS = 16


@dataclass(frozen=True, eq=False)
class CandidateScores:
    """Candidate states with their couplings, ranking keys and gaps.

    The four arrays are aligned.  score is nonnegative for every variant
    except diag_only, which ranks by the raw (possibly negative) key -H_kk.
    gap is E_S - H_kk with its size floored at eps and its sign kept.
    """

    states: np.ndarray
    coupling: np.ndarray
    score: np.ndarray
    gap: np.ndarray

    def __post_init__(self) -> None:
        bad = ~np.isfinite(self.score)
        if bad.any():
            raise ValueError(f"score for state {self.states[bad][0]} is not finite")

    def __len__(self) -> int:
        return len(self.states)


def _step(matrix: RestrictedMatrix, states: np.ndarray) -> np.ndarray:
    """s XOR x_mask for every state (rows) and off-diagonal mask of H (columns)."""
    return states[:, None] ^ np.array(matrix.ham.offdiag_masks, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Frontier:
    """The states ``hops`` steps of H from D outside the subspace, ascending.

    ``dominant`` is the support D the frontier steps from, and through it
    the solution it is scored against; ``hops`` is 1 or 2, and the rest
    is computed when the frontier is made, by :func:`_outside`.
    ``pairs[r, g]`` is the index in ``states`` of D's state r XOR
    ``offdiag_masks[g]``, or -1 where that state is in the subspace.  At
    hops = 2, ``at_one`` holds the index in ``states`` of each 1-hop state,
    ascending, and ``at_grid[i, g]`` that of 1-hop state i XOR
    ``offdiag_masks[g]``, or -1; both are None at hops = 1.
    """

    dominant: DominantSupport
    hops: int = 1
    states: np.ndarray = field(init=False)
    pairs: np.ndarray = field(init=False)
    at_one: np.ndarray | None = field(init=False)
    at_grid: np.ndarray | None = field(init=False)

    def __post_init__(self) -> None:
        if self.hops not in (1, 2):
            raise ValueError(f"hops must be 1 or 2, got {self.hops}")
        matrix = self.dominant.sol.matrix
        states, pairs = _outside(matrix, _step(matrix, self.dominant.states))
        at_one = at_grid = None
        if self.hops == 2:
            grid = _step(matrix, states)
            states, index = _outside(matrix, np.concatenate([states, grid.ravel()]))
            at_one, at_grid = index[:len(grid)], index[len(grid):].reshape(grid.shape)
            # The -1 pad sends a pair that lands in the subspace to -1 again.
            pairs = np.append(at_one, -1)[pairs]
        for name, value in (("states", states), ("pairs", pairs),
                            ("at_one", at_one), ("at_grid", at_grid)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.states)


def _outside(
    matrix: RestrictedMatrix, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct targets outside the subspace, ascending, and where each lies.

    The second array, shaped like the targets, gives each target's index
    among the first, or -1 for a target in the matrix's basis, the
    subspace.  Up to MARK_MAX_QUBITS qubits the targets are marked and the
    subspace unmarked on a 2^n array, whose marks, read in order, are the
    first array; past that the targets are sorted.  Every target steps
    from a support state by one or two of H's masks, all in [0, 2^n), so
    it lies there too.
    """
    n, subspace = matrix.ham.n, matrix.basis
    if n > MARK_MAX_QUBITS:
        states, inverse = np.unique(targets.reshape(-1), return_inverse=True)
        outside = subspace.positions(states) < 0
        index = np.cumsum(outside) - 1
        index[~outside] = -1
        return states[outside], index[inverse].reshape(targets.shape)
    marks = np.zeros(1 << n, dtype=bool)
    marks[targets] = True
    marks[subspace.states] = False
    states = np.flatnonzero(marks)
    # Only the targets' entries are read back, so only they are written.
    index = np.empty(1 << n, dtype=np.int64)
    index[targets] = -1
    index[states] = np.arange(len(states))
    return states, index[targets]


def generate_candidates(dominant: DominantSupport, hops: int = 1) -> Frontier:
    """The frontier ``hops`` steps of H from D, outside the subspace."""
    return Frontier(dominant, hops)


def coupling_map(frontier: Frontier) -> np.ndarray:
    """nu for every candidate of the frontier at once, aligned with it.

    Cost is O(|D| * terms) rather than O(|candidates| * |D|): each
    (s, x_mask) pair lands on exactly one target state, the one
    ``frontier.pairs`` names.  D's amplitudes are read by position from
    the restricted matrix's table, where <s XOR x|H|s> was kept when s
    joined the subspace.  Pairs are summed s-major in D's order, the order
    of the tests' literal per-candidate sum ``coupling``; D is the
    frontier's own, so its rows are the ones its pairs were stepped from.
    """
    sol, rows = frontier.dominant.sol, frontier.dominant.rows
    amps = sol.matrix.table[rows, 1:]
    c = sol.coefficients[rows][:, None]
    # Each real operation rounds on its own, as in the scalar products of
    # the tests' ``coupling``; numpy's vector complex multiply may fuse them.
    real = c.real * amps.real - c.imag * amps.imag
    terms = real + 1j * (c.real * amps.imag + c.imag * amps.real)
    at = frontier.pairs
    hit = at >= 0
    nu = np.zeros(len(frontier), dtype=np.complex128)
    np.add.at(nu, at[hit], terms[hit])
    return nu


def score_candidates(
    kind: str,
    frontier: Frontier,
    eps: float = DEFAULT_EPS,
    rng_seed: int | None = None,
) -> CandidateScores:
    """Score every candidate of the frontier under one variant, in its order.

    E_S and H are those of the solution the frontier's support belongs to.
    On a 2-hop frontier the pure 2-hop states have nu_k = 0 by
    construction, so under "en" they get a chained stand-in instead, from
    the nu and gap just formed: the best one-intermediate path value,

        max over m in 1-hop:  |<k|H|m>|^2 |nu_m|^2 / (|gap_m| |gap_k|)
    """
    if kind not in ACQUISITION_KINDS:
        raise ValueError(f"unknown acquisition kind {kind!r}")
    if kind == "random" and rng_seed is None:
        raise ValueError("random scoring requires rng_seed")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    sol, candidates = frontier.dominant.sol, frontier.states
    ham = sol.matrix.ham
    nu = coupling_map(frontier)
    h_kk = ham.diagonal(candidates)
    raw = sol.energy - h_kk
    # |gap| is the floored size max(|raw|, eps) exactly, to the bit.
    gap = np.copysign(np.maximum(np.abs(raw), eps), raw)
    if kind == "en":
        score = np.abs(nu) ** 2 / np.abs(gap)
        if frontier.hops == 2:
            at_one, at_grid = frontier.at_one, frontier.at_grid
            pure = np.ones(len(candidates), dtype=bool)
            pure[at_one] = False
            # The (1-hop state, mask) pairs that land on a pure 2-hop state.
            hit = np.append(pure, False)[at_grid]
            rows = np.nonzero(hit)[0]
            amp_sq = np.abs(ham.amplitude_table(candidates[at_one]).T[hit]) ** 2
            nu_m_sq = np.abs(nu[at_one]) ** 2
            denom_m = np.abs(gap[at_one])
            best = np.zeros(len(candidates))
            np.maximum.at(best, at_grid[hit], amp_sq * nu_m_sq[rows] / denom_m[rows])
            score[pure] = best[pure] / np.abs(gap[pure])
    elif kind == "coupling_only":
        score = np.abs(nu) ** 2
    elif kind == "denom_only":
        score = 1.0 / np.abs(gap)
    elif kind == "diag_only":
        score = -h_kk
    else:
        score = np.random.default_rng(rng_seed).random(len(candidates))
    return CandidateScores(states=candidates, coupling=nu, score=score, gap=gap)


def score_two_hop(
    kind: str,
    dominant: DominantSupport,
    eps: float = DEFAULT_EPS,
    rng_seed: int | None = None,
) -> CandidateScores:
    """Score the 2-hop frontier of D under one variant, in ascending-state order."""
    return score_candidates(kind, generate_candidates(dominant, 2), eps, rng_seed)


def select_top_b(scored: CandidateScores, B: int) -> CandidateScores:
    """The B best candidates, largest key first; ties go to the lower state.

    Every candidate ahead of the B-th in that order keys at or above the
    B-th largest key, so only those are ranked: ``np.partition`` finds
    that key, and ``lexsort`` orders the candidates keyed at or above it,
    B and their ties, instead of the whole pool.  In a pool of at most B
    states that key is the largest, so every candidate is ranked; an
    empty pool is returned as it is.  In one pass of expand-default (seed
    0) the 240 pools held 241-3772 states for B = 20, and selecting took
    2.7 ms against 10.2 ms for a lexsort of each pool; in expand-wide 5 of
    32 pools held fewer than 3B states for B = 100, and the 32 took 0.7 ms
    against 1.4 ms.
    """
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    if not len(scored):
        return scored
    keys = -scored.score
    kth = min(B, len(keys)) - 1
    ahead = np.flatnonzero(keys <= np.partition(keys, kth)[kth])
    top = ahead[np.lexsort((scored.states[ahead], keys[ahead]))[:B]]
    return CandidateScores(
        states=scored.states[top], coupling=scored.coupling[top],
        score=scored.score[top], gap=scored.gap[top],
    )
