"""Tests for candidate generation and acquisition scoring."""

from __future__ import annotations

import numpy as np
import pytest

from assqd.acquisition import (
    CandidateScores,
    Frontier,
    coupling,
    coupling_map,
    en_score,
    first_order_amplitude,
    generate_candidates,
    score_candidates,
    score_two_hop,
    select_top_b,
)
from assqd.models import DisorderInstance, ModelSpec, build_model, heisenberg_chain
from assqd.pauli import PauliHamiltonian, PauliTerm, parse_hamiltonian
from assqd.subspace import (
    DominantSupport,
    Subspace,
    build_restricted,
    dominant_support,
    lowest_eigenpair,
)
from conftest import random_hamiltonian


def solve(ham, states):
    return lowest_eigenpair(build_restricted(ham, Subspace(tuple(states))))


def support(subspace, *states):
    states = np.array(states, dtype=np.int64)
    return DominantSupport(states=states, rows=subspace.positions(states))


def ranked(states, score):
    """Scores with placeholder diagonals and couplings, for select_top_b."""
    zeros = np.zeros(len(states))
    return CandidateScores(
        states=np.array(states, dtype=np.int64), diagonal=zeros,
        coupling=zeros.astype(complex), score=np.array(score, dtype=float),
    )


class TestGenerateCandidates:
    def test_heisenberg_ring_from_origin(self):
        ham = heisenberg_chain(3, 1.0, DisorderInstance((0.0,) * 3, 0))
        sub = Subspace((0,))
        out = generate_candidates(ham, support(sub, 0), sub)
        assert out.states.tolist() == [0b011, 0b101, 0b110]
        assert out.pairs.tolist() == [[0, 1, 2]]

    def test_diagonal_hamiltonian_has_no_candidates(self):
        h = PauliHamiltonian(3, [PauliTerm(0, m, 1.0) for m in (1, 2, 4)])
        sub = Subspace((0,))
        assert len(generate_candidates(h, support(sub, 0), sub)) == 0

    def test_disjoint_from_subspace(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            h = random_hamiltonian(n, 12, rng)
            states = tuple(
                int(s) for s in rng.choice(1 << n, size=min(8, 1 << n), replace=False)
            )
            sub = Subspace(states)
            d = support(sub, *states[:3])
            two_hop = score_two_hop("random", h, solve(h, states), d, sub, rng_seed=0)
            for cands in (generate_candidates(h, d, sub).states, two_hop.states):
                assert not np.isin(cands, states).any()

    def test_two_hop_contains_one_hop(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=5, seed=2))
        sub = Subspace((0, 3))
        d = support(sub, 0, 3)
        one = generate_candidates(ham, d, sub).states
        sol = solve(ham, (0, 3))
        two = score_two_hop("random", ham, sol, d, sub, rng_seed=0).states
        assert np.isin(one, two).all()
        assert len(two) > len(one)


class TestCoupling:
    def test_uncoupled_candidate_is_zero(self):
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        sol = solve(h, (1, 2))
        d = support(sol.subspace, 1, 2)
        assert coupling(h, sol, d, 0) == 0.0

    def test_single_dominant_state_gives_matrix_element(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=4, seed=1))
        sol = solve(ham, (0,))
        d = support(sol.subspace, 0)
        for k in ham.neighbors(0):
            assert np.isclose(coupling(ham, sol, d, k), ham.matrix_element(k, 0))

    def test_full_support_matches_dense_inner_product(self):
        rng = np.random.default_rng(67)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            h = random_hamiltonian(n, 15, rng)
            size = int(rng.integers(2, min(12, 1 << n) + 1))
            states = tuple(int(s) for s in rng.choice(1 << n, size=size, replace=False))
            sol = solve(h, states)
            d = dominant_support(sol, 0.0)
            psi = np.zeros(1 << n, dtype=complex)
            for s in states:
                psi[s] = sol.coefficient(s)
            h_psi = h.dense_matrix() @ psi
            for k in range(1 << n):
                if sol.subspace.positions(k) >= 0:
                    continue
                reference = h_psi[k]
                if d.states.tolist() == list(states):
                    assert np.isclose(coupling(h, sol, d, k), reference, atol=1e-12)

    def test_map_matches_per_candidate_sums(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            h = random_hamiltonian(n, 20, rng)
            states = tuple(int(s) for s in rng.choice(1 << n, size=6, replace=False))
            sol = solve(h, states)
            d = dominant_support(sol, 1e-4)
            cands = generate_candidates(h, d, sol.subspace)
            nu = coupling_map(sol, d, cands)
            for k, nu_k in zip(cands.states.tolist(), nu):
                assert np.isclose(nu_k, coupling(h, sol, d, k), atol=1e-13)


class TestEnScore:
    def test_direct_arithmetic(self):
        assert en_score(-1.0, 1.0, 2.0, 1e-8) == 2.0

    def test_zero_coupling_zero_score(self):
        assert en_score(-1.0, -1.0, 0.0, 1e-8) == 0.0

    def test_regularized_at_degeneracy(self):
        assert np.isclose(en_score(3.0, 3.0, 1.0, 1e-8), 1e8)

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            en_score(0.0, 1.0, 1.0, 0.0)


class TestFirstOrderAmplitude:
    # The signed first-order correction, with en_score's floor on the
    # gap's size: |amplitude|^2 times |gap| is the EN score.
    def test_signed_and_floored(self):
        got = first_order_amplitude(
            -1.0, np.array([1.0, -3.0, -1.0 + 1e-12, -1.0 - 1e-12]),
            np.array([2.0, 2.0, 1.0, 1j]), 1e-8)
        assert got.tolist() == [-1.0, 1.0, -1e8, 1e8j]

    def test_matches_en_score(self):
        h_kk, nu = np.array([0.5, -2.0, 4.0]), np.array([1.0 - 2j, 0.3, -1j])
        amp = first_order_amplitude(-1.0, h_kk, nu, 1e-8)
        score = en_score(-1.0, h_kk, nu, 1e-8)
        assert np.allclose(np.abs(amp) ** 2 * np.abs(-1.0 - h_kk), score, rtol=1e-14)


class TestScoreCandidates:
    def _setup(self, seed=0):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=5, seed=seed))
        sol = solve(ham, (0, 3, 5))
        d = dominant_support(sol, 1e-4)
        cands = generate_candidates(ham, d, sol.subspace)
        return ham, sol, d, cands

    def test_en_matches_en_score_elementwise(self):
        ham, sol, d, cands = self._setup()
        sc = score_candidates("en", ham, sol, d, cands, eps=1e-8)
        for diagonal, nu, score in zip(sc.diagonal, sc.coupling, sc.score):
            assert np.isclose(score, en_score(sol.energy, diagonal, nu, 1e-8))

    def test_coupling_only_squares_nu(self):
        ham, sol, d, cands = self._setup()
        sc = score_candidates("coupling_only", ham, sol, d, cands)
        for nu, score in zip(sc.coupling, sc.score):
            assert np.isclose(score, abs(nu) ** 2)
            assert score >= 0

    def test_denom_only_ignores_coupling(self):
        ham, sol, d, cands = self._setup()
        sc = score_candidates("denom_only", ham, sol, d, cands, eps=1e-8)
        for diagonal, score in zip(sc.diagonal, sc.score):
            assert np.isclose(score, 1.0 / max(abs(sol.energy - diagonal), 1e-8))

    def test_diag_only_ranks_lowest_diagonal_first(self):
        diagonals = {0: 5.0, 1: -2.0, 2: 0.0}
        scored = ranked(list(diagonals), [-dv for dv in diagonals.values()])
        picked = select_top_b(scored, 3)
        assert [diagonals[s] for s in picked.states.tolist()] == [-2.0, 0.0, 5.0]

    def test_random_same_seed_same_order(self):
        ham, sol, d, cands = self._setup()
        a = score_candidates("random", ham, sol, d, cands, rng_seed=99)
        b = score_candidates("random", ham, sol, d, cands, rng_seed=99)
        assert a.score.tolist() == b.score.tolist()
        c = score_candidates("random", ham, sol, d, cands, rng_seed=100)
        assert a.score.tolist() != c.score.tolist()

    def test_random_requires_seed(self):
        ham, sol, d, cands = self._setup()
        with pytest.raises(ValueError, match="rng_seed"):
            score_candidates("random", ham, sol, d, cands)

    def test_unknown_kind_rejected(self):
        ham, sol, d, cands = self._setup()
        with pytest.raises(ValueError, match="kind"):
            score_candidates("best", ham, sol, d, cands)

    def test_candidates_overlapping_subspace_rejected(self):
        ham, sol, d, cands = self._setup()
        overlapping = Frontier(np.append(cands.states, 0), cands.pairs)
        with pytest.raises(ValueError, match="intersect"):
            score_candidates("en", ham, sol, d, overlapping)

    def test_scale_covariance(self):
        rng = np.random.default_rng(79)
        for trial in range(5):
            n = 5
            h = random_hamiltonian(n, 15, rng)
            lam = 2.5
            scaled = PauliHamiltonian(
                n, [PauliTerm(t.x_mask, t.z_mask, lam * t.coefficient) for t in h.terms]
            )
            states = tuple(int(s) for s in rng.choice(32, size=6, replace=False))
            sol = solve(h, states)
            sol_scaled = solve(scaled, states)
            assert np.isclose(sol_scaled.energy, lam * sol.energy, atol=1e-9)
            d = dominant_support(sol, 1e-4)
            d_scaled = dominant_support(sol_scaled, 1e-4)
            cands = generate_candidates(h, d, sol.subspace)
            if len(cands) == 0:
                continue
            cands_scaled = generate_candidates(scaled, d_scaled, sol_scaled.subspace)
            assert np.array_equal(cands.states, cands_scaled.states)
            a = score_candidates("en", h, sol, d, cands)
            b = score_candidates("en", scaled, sol_scaled, d_scaled, cands_scaled)
            assert (select_top_b(a, len(cands)).states.tolist()
                    == select_top_b(b, len(cands)).states.tolist())
            for x, y in zip(a.score, b.score):
                if x > 1e-12:
                    assert np.isclose(y / x, lam, rtol=1e-8)

    def test_top_en_beats_bottom_en_usually(self):
        rng = np.random.default_rng(83)
        wins = 0
        trials = 0
        while trials < 100:
            h = random_hamiltonian(5, 12, rng)
            states = tuple(int(s) for s in rng.choice(32, size=5, replace=False))
            sol = solve(h, states)
            d = dominant_support(sol, 1e-4)
            cands = generate_candidates(h, d, sol.subspace)
            if len(cands) < 2:
                continue
            scored = score_candidates("en", h, sol, d, cands)
            ranked = select_top_b(scored, len(scored)).states
            top, bottom = int(ranked[0]), int(ranked[-1])
            e_top = solve(h, states + (top,)).energy
            e_bottom = solve(h, states + (bottom,)).energy
            trials += 1
            if e_top <= e_bottom + 1e-12:
                wins += 1
        assert wins / trials >= 0.95


class TestScoreTwoHop:
    def test_pure_two_hop_has_zero_coupling(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=5, seed=7))
        sol = solve(ham, (0,))
        d = dominant_support(sol, 0.0)
        sub = sol.subspace
        one_hop = generate_candidates(ham, d, sub).states
        scored = score_two_hop("en", ham, sol, d, sub)
        assert np.all(np.diff(scored.states) > 0)
        assert np.isin(one_hop, scored.states).all()
        assert len(scored) > len(one_hop)
        for state, nu, score in zip(scored.states, scored.coupling, scored.score):
            if state not in one_hop:
                assert nu == 0.0
            assert score >= 0
            assert np.isfinite(score)

    def test_one_hop_entries_match_en_scoring(self):
        ham, _ = build_model(ModelSpec(kind="tfim", n=5, seed=3))
        sol = solve(ham, (0, 7))
        d = dominant_support(sol, 1e-4)
        sub = sol.subspace
        one_hop = generate_candidates(ham, d, sub)
        direct_scores = score_candidates("en", ham, sol, d, one_hop)
        direct = dict(zip(direct_scores.states.tolist(), direct_scores.score))
        chained_scores = score_two_hop("en", ham, sol, d, sub)
        chained = dict(zip(chained_scores.states.tolist(), chained_scores.score))
        for state, score in direct.items():
            assert np.isclose(chained[state], score)

    def test_reachable_two_hop_scores_positive(self):
        # Two XX bonds in a line: 000 -> 110 -> 011 and 000 -> 011 -> 101
        # style chains; with Z fields the denominators stay generic.
        text = "1.0 XXI\n1.0 IXX\n0.3 ZII\n0.7 IZI\n0.4 IIZ\n"
        h = parse_hamiltonian(text)
        sol = solve(h, (0,))
        d = dominant_support(sol, 0.0)
        sub = sol.subspace
        one_hop = generate_candidates(h, d, sub)
        assert one_hop.states.tolist() == [0b011, 0b110]
        scored = score_two_hop("en", h, sol, d, sub)
        assert 0b101 in scored.states
        at = scored.states.tolist().index(0b101)
        assert scored.score[at] > 0
        assert scored.coupling[at] == 0.0


class TestSelectTopB:
    def test_basic_selection(self):
        scored = ranked([4, 7, 1], [5.0, 3.0, 1.0])
        assert select_top_b(scored, 2).states.tolist() == [4, 7]

    def test_fewer_candidates_than_b(self):
        scored = ranked([2], [1.0])
        assert select_top_b(scored, 10).states.tolist() == [2]

    def test_tie_break_by_state(self):
        scored = ranked([9, 4], [2.0, 2.0])
        assert select_top_b(scored, 1).states.tolist() == [4]

    def test_bad_b_rejected(self):
        with pytest.raises(ValueError, match="B"):
            select_top_b([], 0)
