"""Candidate generation and perturbation-theoretic scoring.

Candidates are the Hamiltonian-connected frontier of the dominant support
D.  Each candidate k gets the second-order score

    a(k) = |nu_k|^2 / max(|E_S - H_kk|, eps),   nu_k = sum_{s in D} c_s <k|H|s>

whose signed counterpart |nu_k|^2 / (E_S - H_kk) is the usual
Epstein-Nesbet energy correction.  Ablation variants keep one factor each
(coupling_only, denom_only, diag_only) and the random variant ranks by a
seeded uniform draw.

Two scoring routes exist for nu on purpose: :func:`coupling` is the
literal per-candidate sum, :func:`coupling_map` vectorizes over the
Hamiltonian's masks.  Tests hold them equal; the driver uses the map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from assqd.pauli import BasisState, PauliHamiltonian
from assqd.subspace import DominantSupport, RestrictedSolution, Subspace

ACQUISITION_KINDS = ("en", "coupling_only", "denom_only", "diag_only", "random")

DEFAULT_EPS = 1e-8


@dataclass(frozen=True)
class ScoredCandidate:
    """A candidate state with its diagonal, coupling, and ranking key.

    score is nonnegative for every variant except diag_only, which ranks
    by the raw (possibly negative) key -H_kk.
    """

    state: BasisState
    diagonal: float
    coupling: complex
    score: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.score):
            raise ValueError(f"score for state {self.state} is not finite")


def generate_candidates(
    ham: PauliHamiltonian,
    dominant: DominantSupport,
    subspace: Subspace,
    hops: int = 1,
) -> set[BasisState]:
    """Frontier of the dominant support, excluding the subspace.

    hops=1 is the union of single-term neighborhoods of D.  hops=2 also
    walks one more step from every 1-hop candidate (used by the horizon
    experiment); the result stays disjoint from the subspace.
    """
    if hops not in (1, 2):
        raise ValueError(f"hops must be 1 or 2, got {hops}")
    index = subspace.index
    one_hop: set[BasisState] = set()
    for s in dominant.states:
        one_hop.update(ham.neighbors(s))
    one_hop.difference_update(index)
    if hops == 1:
        return one_hop
    frontier = set(one_hop)
    for m in one_hop:
        frontier.update(ham.neighbors(m))
    frontier.difference_update(index)
    return frontier


def coupling(
    ham: PauliHamiltonian,
    sol: RestrictedSolution,
    dominant: DominantSupport,
    k: BasisState,
) -> complex:
    """nu_k = sum over the dominant support of c_s <k|H|s>."""
    total = 0.0 + 0.0j
    for s in dominant.states:
        total += sol.coefficient(s) * ham.matrix_element(k, s)
    return total


def coupling_map(
    ham: PauliHamiltonian,
    sol: RestrictedSolution,
    dominant: DominantSupport,
    candidates: set[BasisState],
) -> dict[BasisState, complex]:
    """nu for every candidate at once, walking masks instead of pairs.

    Cost is O(|D| * terms) rather than O(|candidates| * |D|); each
    (s, x_mask) pair lands on exactly one target state.
    """
    nu: dict[BasisState, complex] = {k: 0.0 + 0.0j for k in candidates}
    for s in dominant.states:
        c_s = sol.coefficient(s)
        for x_mask in ham.offdiag_masks:
            k = s ^ x_mask
            if k in nu:
                nu[k] += c_s * ham._group_amplitude(x_mask, s)
    return nu


def en_score(e_s: float, h_kk: float, nu_k: complex, eps: float) -> float:
    """|nu_k|^2 over the regularized diagonal gap."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return abs(nu_k) ** 2 / max(abs(e_s - h_kk), eps)


def signed_correction(e_s: float, h_kk: float, nu_k: complex) -> float:
    """Second-order energy shift |nu_k|^2 / (E_S - H_kk), sign intact."""
    return abs(nu_k) ** 2 / (e_s - h_kk)


def score_candidates(
    kind: str,
    ham: PauliHamiltonian,
    sol: RestrictedSolution,
    dominant: DominantSupport,
    candidates: set[BasisState],
    eps: float = DEFAULT_EPS,
    rng_seed: int | None = None,
) -> list[ScoredCandidate]:
    """Score every candidate under one variant, in ascending-state order."""
    if kind not in ACQUISITION_KINDS:
        raise ValueError(f"unknown acquisition kind {kind!r}")
    overlap = [k for k in candidates if k in sol.subspace.index]
    if overlap:
        raise ValueError(f"candidates intersect the subspace: {sorted(overlap)[:5]}")
    ordered = sorted(candidates)
    nu = coupling_map(ham, sol, dominant, candidates)
    e_s = sol.energy
    if kind == "random":
        if rng_seed is None:
            raise ValueError("random scoring requires rng_seed")
        draws = np.random.default_rng(rng_seed).random(len(ordered))
    scored = []
    for pos, k in enumerate(ordered):
        h_kk = ham.diagonal(k)
        nu_k = nu[k]
        if kind == "en":
            score = en_score(e_s, h_kk, nu_k, eps)
        elif kind == "coupling_only":
            score = abs(nu_k) ** 2
        elif kind == "denom_only":
            score = 1.0 / max(abs(e_s - h_kk), eps)
        elif kind == "diag_only":
            score = -h_kk
        else:
            score = float(draws[pos])
        scored.append(
            ScoredCandidate(state=k, diagonal=h_kk, coupling=nu_k, score=score)
        )
    return scored


def score_two_hop(
    ham: PauliHamiltonian,
    sol: RestrictedSolution,
    dominant: DominantSupport,
    subspace: Subspace,
    eps: float = DEFAULT_EPS,
) -> list[ScoredCandidate]:
    """EN scoring over the 2-hop frontier.

    Direct (1-hop) candidates keep the ordinary EN score.  Pure 2-hop
    candidates have nu_k = 0 by construction, so they get a chained
    stand-in: the best one-intermediate path value

        max over m in 1-hop:  |<k|H|m>|^2 |nu_m|^2
                              / (max(|E_S - H_mm|, eps) max(|E_S - H_kk|, eps))
    """
    one_hop = generate_candidates(ham, dominant, subspace, hops=1)
    scored = score_candidates("en", ham, sol, dominant, one_hop, eps=eps)
    pure_two: set[BasisState] = set()
    for m in one_hop:
        pure_two.update(ham.neighbors(m))
    pure_two.difference_update(one_hop, subspace.index)
    e_s = sol.energy
    best: dict[BasisState, float] = {k: 0.0 for k in pure_two}
    for sc in scored:
        nu_m_sq = abs(sc.coupling) ** 2
        if nu_m_sq == 0.0:
            continue
        denom_m = max(abs(e_s - sc.diagonal), eps)
        for x_mask in ham.offdiag_masks:
            k = sc.state ^ x_mask
            if k in best:
                amp = ham._group_amplitude(x_mask, sc.state)
                value = abs(amp) ** 2 * nu_m_sq / denom_m
                if value > best[k]:
                    best[k] = value
    for k in sorted(pure_two):
        h_kk = ham.diagonal(k)
        scored.append(
            ScoredCandidate(
                state=k,
                diagonal=h_kk,
                coupling=0.0 + 0.0j,
                score=best[k] / max(abs(e_s - h_kk), eps),
            )
        )
    return scored


def select_top_b(scored: list[ScoredCandidate], B: int) -> list[BasisState]:
    """Largest ranking keys first; ties go to the lower state value."""
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    ranked = sorted(scored, key=lambda sc: (-sc.score, sc.state))
    return [sc.state for sc in ranked[:B]]
