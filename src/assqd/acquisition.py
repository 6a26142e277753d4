"""Candidate generation and perturbation-theoretic scoring.

Candidates are the Hamiltonian-connected frontier of the dominant support
D, as a :class:`Frontier`: the ascending int64 candidate states, and for
every (state of D, off-diagonal mask) pair the index of the state it
steps to among them, or -1 where that state is in the subspace.  Each
candidate k gets the second-order score

    a(k) = |nu_k|^2 / |gap_k|,   nu_k = sum_{s in D} c_s <k|H|s>,
    gap_k = E_S - H_kk with its size floored at eps and its sign kept

whose signed counterpart |nu_k|^2 / gap_k is the usual Epstein-Nesbet
energy correction.  Ablation variants keep one factor each
(coupling_only, denom_only, diag_only) and the random variant ranks by a
seeded uniform draw.  One :class:`CandidateScores` of aligned arrays holds
them, the gap too, which every consumer reads from there.

:func:`generate_candidates` gives the 1-hop frontier.  The horizon
experiment's 2-hop frontier is built and scored in one place,
:func:`score_two_hop`: the same scores for every kind, except that under
"en" the pure 2-hop states, whose nu is zero, get a chained stand-in.
Both frontiers come from one ``np.unique(..., return_inverse=True)`` over
the states stepped to, whose inverse gives every pair its index; the
distinct states are tested against the subspace once, with
:meth:`Subspace.positions`.

:func:`coupling_map` gives nu by summing every (state, mask) term of D
into the candidate its pair index names, reading D's amplitudes from the
restricted matrix's table by D's rows.  The tests hold it equal, bit for
bit, to their literal per-candidate sum, ``coupling``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from assqd.pauli import PauliHamiltonian
from assqd.subspace import DominantSupport, RestrictedSolution, Subspace

ACQUISITION_KINDS = ("en", "coupling_only", "denom_only", "diag_only", "random")

DEFAULT_EPS = 1e-8


@dataclass(frozen=True, eq=False)
class CandidateScores:
    """Candidate states with their diagonals, couplings, ranking keys and gaps.

    The five arrays are aligned.  score is nonnegative for every variant
    except diag_only, which ranks by the raw (possibly negative) key -H_kk.
    gap is E_S - H_kk with its size floored at eps and its sign kept.
    """

    states: np.ndarray
    diagonal: np.ndarray
    coupling: np.ndarray
    score: np.ndarray
    gap: np.ndarray

    def __post_init__(self) -> None:
        bad = ~np.isfinite(self.score)
        if bad.any():
            raise ValueError(f"score for state {self.states[bad][0]} is not finite")

    def __len__(self) -> int:
        return len(self.states)


def _step(ham: PauliHamiltonian, states: np.ndarray) -> np.ndarray:
    """s XOR x_mask for every state (rows) and off-diagonal mask (columns)."""
    return states[:, None] ^ np.array(ham.offdiag_masks, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Frontier:
    """Candidate states, ascending, and where D's single-term steps land.

    ``pairs[r, g]`` is the index in ``states`` of D's state r XOR
    ``offdiag_masks[g]``, or -1 where that state is in the subspace.
    """

    states: np.ndarray
    pairs: np.ndarray

    def __len__(self) -> int:
        return len(self.states)


def _outside(subspace: Subspace, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct targets outside the subspace, ascending, and where each lies.

    The second array, shaped like the targets, gives each target's index
    among the first, or -1 for a target in the subspace.
    """
    states, inverse = np.unique(targets.reshape(-1), return_inverse=True)
    outside = subspace.positions(states) < 0
    index = np.cumsum(outside) - 1
    index[~outside] = -1
    return states[outside], index[inverse].reshape(targets.shape)


def generate_candidates(
    ham: PauliHamiltonian,
    dominant: DominantSupport,
    subspace: Subspace,
) -> Frontier:
    """The 1-hop frontier of D: its single-term neighbours outside the subspace.

    :func:`score_two_hop` steps once more from it.
    """
    return Frontier(*_outside(subspace, _step(ham, dominant.states)))


def coupling_map(
    sol: RestrictedSolution,
    dominant: DominantSupport,
    frontier: Frontier,
) -> np.ndarray:
    """nu for every candidate of the frontier at once, aligned with it.

    Cost is O(|D| * terms) rather than O(|candidates| * |D|): each
    (s, x_mask) pair lands on exactly one target state, the one
    ``frontier.pairs`` names.  D's amplitudes are read by position from
    the restricted matrix's table, where <s XOR x|H|s> was kept when s
    joined the subspace.  Pairs are summed s-major in D's order, the order
    of the tests' literal per-candidate sum ``coupling``.
    """
    amps = sol.matrix.table[dominant.rows, 1:]
    c = sol.coefficients[dominant.rows][:, None]
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
    ham: PauliHamiltonian,
    sol: RestrictedSolution,
    dominant: DominantSupport,
    frontier: Frontier,
    eps: float = DEFAULT_EPS,
    rng_seed: int | None = None,
) -> CandidateScores:
    """Score every candidate of the frontier under one variant, in its order."""
    if kind not in ACQUISITION_KINDS:
        raise ValueError(f"unknown acquisition kind {kind!r}")
    if kind == "random" and rng_seed is None:
        raise ValueError("random scoring requires rng_seed")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    candidates = frontier.states
    overlap = candidates[sol.subspace.positions(candidates) >= 0]
    if len(overlap):
        raise ValueError(f"candidates intersect the subspace: {overlap[:5].tolist()}")
    nu = coupling_map(sol, dominant, frontier)
    h_kk = ham.diagonal(candidates)
    raw = sol.energy - h_kk
    # |gap| is the floored size max(|raw|, eps) exactly, to the bit.
    gap = np.copysign(np.maximum(np.abs(raw), eps), raw)
    if kind == "en":
        score = np.abs(nu) ** 2 / np.abs(gap)
    elif kind == "coupling_only":
        score = np.abs(nu) ** 2
    elif kind == "denom_only":
        score = 1.0 / np.abs(gap)
    elif kind == "diag_only":
        score = -h_kk
    else:
        score = np.random.default_rng(rng_seed).random(len(candidates))
    return CandidateScores(states=candidates, diagonal=h_kk, coupling=nu, score=score, gap=gap)


def score_two_hop(
    kind: str,
    ham: PauliHamiltonian,
    sol: RestrictedSolution,
    dominant: DominantSupport,
    eps: float = DEFAULT_EPS,
    rng_seed: int | None = None,
) -> CandidateScores:
    """Score the 2-hop frontier under one variant, in ascending-state order.

    The frontier is the 1-hop frontier plus one more step from each of its
    states, outside the solution's subspace, built as the 1-hop one is,
    with D's pairs carried over through the 1-hop states' places in it;
    :func:`score_candidates` scores all of it.  Pure 2-hop states have
    nu_k = 0 by construction, so under "en" they get a chained stand-in
    instead: the best one-intermediate path value, over the scored gaps,

        max over m in 1-hop:  |<k|H|m>|^2 |nu_m|^2 / (|gap_m| |gap_k|)
    """
    subspace = sol.subspace
    one_hop = generate_candidates(ham, dominant, subspace)
    grid = _step(ham, one_hop.states)
    states, index = _outside(subspace, np.concatenate([one_hop.states, grid.ravel()]))
    at_one = index[:len(one_hop)]
    at_grid = index[len(one_hop):].reshape(grid.shape)
    # The -1 pad sends a pair that lands in the subspace to -1 again.
    frontier = Frontier(states, np.append(at_one, -1)[one_hop.pairs])
    scored = score_candidates(kind, ham, sol, dominant, frontier, eps, rng_seed)
    if kind != "en":
        return scored
    pure = np.ones(len(frontier), dtype=bool)
    pure[at_one] = False
    # The (1-hop state, mask) pairs that land on a pure 2-hop state.
    hit = np.append(pure, False)[at_grid]
    rows = np.nonzero(hit)[0]
    amp_sq = np.abs(ham.amplitude_table(one_hop.states).T[hit]) ** 2
    nu_m_sq = np.abs(scored.coupling[at_one]) ** 2
    denom_m = np.abs(scored.gap[at_one])
    best = np.zeros(len(frontier))
    np.maximum.at(best, at_grid[hit], amp_sq * nu_m_sq[rows] / denom_m[rows])
    score = scored.score.copy()
    score[pure] = best[pure] / np.abs(scored.gap[pure])
    return dataclasses.replace(scored, score=score)


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
        states=scored.states[top], diagonal=scored.diagonal[top],
        coupling=scored.coupling[top], score=scored.score[top], gap=scored.gap[top],
    )
