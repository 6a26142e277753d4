"""Tests for candidate generation and acquisition scoring."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import assqd.acquisition as acquisition
from assqd.acquisition import (
    ACQUISITION_KINDS,
    CandidateScores,
    Frontier,
    coupling_map,
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
from conftest import coupling, dense_matrix, random_hamiltonian


def solve(ham, states):
    return lowest_eigenpair(build_restricted(ham, Subspace(tuple(states))))


def support(sol, *states):
    """The support of the solution's subspace at the given states, rows ascending."""
    return DominantSupport(sol, np.sort(sol.subspace.positions(np.array(states, dtype=np.int64))))


def both_set_paths(monkeypatch):
    """Run a loop body on 2^n mark arrays, then, with the limit lowered, on the sort."""
    yield
    monkeypatch.setattr(acquisition, "MARK_MAX_QUBITS", 0)
    yield


def ranked(states, score):
    """Scores with placeholder couplings and gaps, for select_top_b."""
    zeros = np.zeros(len(states))
    return CandidateScores(
        states=np.array(states, dtype=np.int64), coupling=zeros.astype(complex),
        score=np.array(score, dtype=float), gap=zeros,
    )


class TestGenerateCandidates:
    def test_heisenberg_ring_from_origin(self):
        ham = heisenberg_chain(3, 1.0, DisorderInstance((0.0,) * 3, 0))
        out = generate_candidates(support(solve(ham, (0,)), 0))
        assert out.states.tolist() == [0b011, 0b101, 0b110]
        assert out.pairs.tolist() == [[0, 1, 2]]

    @pytest.mark.parametrize("state", [-1, 64, 85])
    def test_out_of_range_state_rejected(self, state):
        # 85 = 64 + 21 aliases the subspace state 21 in its low six bits.
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=6, seed=0))
        # No matrix holds the state, and a support names rows of a solved
        # one: the state's row -1 is refused, as is the row past the end.
        with pytest.raises(ValueError, match=r"\[0, 2\^6\)"):
            build_restricted(ham, Subspace((21, 42, state)))
        sol = solve(ham, (21, 42))
        for rows in (sol.subspace.positions([21, state]), np.array([0, 2])):
            with pytest.raises(ValueError, match=r"support rows must lie in \[0, 2\)"):
                generate_candidates(DominantSupport(sol, rows))

    def test_diagonal_hamiltonian_has_no_candidates(self):
        h = PauliHamiltonian(3, [PauliTerm(0, m, 1.0) for m in (1, 2, 4)])
        assert len(generate_candidates(support(solve(h, (0,)), 0))) == 0

    def test_disjoint_from_subspace(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            h = random_hamiltonian(n, 12, rng)
            states = tuple(
                int(s) for s in rng.choice(1 << n, size=min(8, 1 << n), replace=False)
            )
            sol = solve(h, states)
            d = support(sol, *states[:3])
            two_hop = score_two_hop("random", d, rng_seed=0)
            for cands in (generate_candidates(d).states, two_hop.states):
                assert not np.isin(cands, states).any()

    def test_two_hop_contains_one_hop(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=5, seed=2))
        sol = solve(ham, (0, 3))
        d = support(sol, 0, 3)
        one = generate_candidates(d).states
        two = score_two_hop("random", d, rng_seed=0).states
        assert np.isin(one, two).all()
        assert len(two) > len(one)


class TestCoupling:
    def test_uncoupled_candidate_is_zero(self):
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        sol = solve(h, (1, 2))
        d = support(sol, 1, 2)
        assert coupling(d, 0) == 0.0

    def test_single_dominant_state_gives_matrix_element(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=4, seed=1))
        sol = solve(ham, (0,))
        d = support(sol, 0)
        for k in ham.neighbors(0):
            assert np.isclose(coupling(d, k), ham.matrix_element(k, 0))

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
                psi[s] = sol.coefficients[sol.subspace.positions(s)]
            h_psi = dense_matrix(h) @ psi
            for k in range(1 << n):
                if sol.subspace.positions(k) >= 0:
                    continue
                reference = h_psi[k]
                if d.states.tolist() == list(states):
                    assert np.isclose(coupling(d, k), reference, atol=1e-12)

    def test_map_matches_per_candidate_sums(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            h = random_hamiltonian(n, 20, rng)
            states = tuple(int(s) for s in rng.choice(1 << n, size=6, replace=False))
            sol = solve(h, states)
            d = dominant_support(sol, 1e-4)
            cands = generate_candidates(d)
            nu = coupling_map(cands)
            for k, nu_k in zip(cands.states.tolist(), nu):
                assert np.isclose(nu_k, coupling(d, k), atol=1e-13)


def _gap_fixture():
    """D = {00} of a 2-qubit H with E_S = -1 and exact small numbers.

    The candidates 01, 10 and 11 have H_kk = 1, -3 and 3, so gaps -2, 2
    and -4, and couplings 2, 2j and 1.
    """
    h = parse_hamiltonian("-2.0 ZI\n1.0 ZZ\n2.0 XI\n2.0 IY\n1.0 XX\n")
    sol = solve(h, (0,))
    d = support(sol, 0)
    return h, sol, d, generate_candidates(d)


class TestEnScore:
    # The en key of score_candidates, |nu|^2 / |gap|, where the gap is
    # E_S - H_kk with its size floored at eps and its sign kept.
    def test_direct_arithmetic(self):
        h, sol, d, cands = _gap_fixture()
        assert sol.energy == -1.0
        sc = score_candidates("en", cands, eps=1e-8)
        assert sc.states.tolist() == [1, 2, 3]
        assert h.diagonal(sc.states).tolist() == [1.0, -3.0, 3.0]
        assert sc.coupling.tolist() == [2.0, 2j, 1.0]
        assert sc.gap.tolist() == [-2.0, 2.0, -4.0]
        assert sc.score.tolist() == [2.0, 2.0, 0.25]

    def test_zero_coupling_zero_score(self):
        # XX and YY cancel from |00> to |11>: H steps D = {00} to 11 by the
        # mask 11, and <11|H|00> = 0, so nu is zero while the gap is 1.
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n1.0 ZZ\n0.5 ZI\n")
        d = support(solve(h, (0,)), 0)
        sc = score_candidates("en", generate_candidates(d))
        assert sc.states.tolist() == [3]
        assert sc.gap.tolist() == [1.0]
        assert sc.coupling.tolist() == [0.0]
        assert sc.score.tolist() == [0.0]

    def test_regularized_at_degeneracy(self):
        # E_S = H_kk = 0: the gap is +eps and the score 1 / eps.
        h = parse_hamiltonian("1.0 X\n")
        sol = solve(h, (0,))
        d = support(sol, 0)
        sc = score_candidates("en", generate_candidates(d))
        assert sc.gap.tolist() == [1e-8]
        assert np.isclose(sc.score[0], 1e8)

    def test_floor_keeps_sign(self):
        # eps above every |E_S - H_kk|: every gap is +-eps.
        h, sol, d, cands = _gap_fixture()
        sc = score_candidates("en", cands, eps=5.0)
        assert sc.gap.tolist() == [-5.0, 5.0, -5.0]
        assert sc.score.tolist() == [4.0 / 5.0, 4.0 / 5.0, 1.0 / 5.0]

    def test_sign_follows_e_s_minus_diagonal(self):
        ham, _ = build_model(ModelSpec(kind="tfim", n=6, seed=4))
        sol = solve(ham, (0b011011, 0b100100, 0b010101))
        d = dominant_support(sol, 1e-4)
        sc = score_candidates("en", generate_candidates(d))
        raw = sol.energy - ham.diagonal(sc.states)
        assert (raw > 0).any() and (raw < 0).any()
        assert np.array_equal(np.sign(sc.gap), np.sign(raw))
        assert np.array_equal(np.abs(sc.gap), np.maximum(np.abs(raw), 1e-8))

    def test_bad_eps_rejected(self):
        h, sol, d, cands = _gap_fixture()
        for kind in ACQUISITION_KINDS:
            for eps in (0.0, -1.0, float("nan")):
                with pytest.raises(ValueError, match="eps"):
                    score_candidates(kind, cands, eps=eps, rng_seed=0)


class TestFirstOrderAmplitude:
    # coupling / gap, the signed first-order correction that starts the
    # loop's warm solves: |amplitude|^2 times |gap| is the EN score.
    def test_signed_and_floored(self):
        h, sol, d, cands = _gap_fixture()
        sc = score_candidates("en", cands, eps=1e-8)
        assert (sc.coupling / sc.gap).tolist() == [-1.0, 1j, -0.25]
        floored = score_candidates("en", cands, eps=5.0)
        assert (floored.coupling / floored.gap).tolist() == [-0.4, 0.4j, -0.2]

    def test_matches_en_score(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=6, seed=3))
        sol = solve(ham, (0b000111, 0b001011, 0b010101))
        d = dominant_support(sol, 1e-4)
        for eps in (1e-8, 0.5):
            sc = score_candidates("en", generate_candidates(d), eps=eps)
            amp = sc.coupling / sc.gap
            assert np.allclose(np.abs(amp) ** 2 * np.abs(sc.gap), sc.score, rtol=1e-14)


class TestGap:
    # Every consumer of E_S - H_kk reads scored.gap: the en and denom_only
    # keys, the 2-hop stand-in and the expansion loop's warm start.
    @pytest.mark.parametrize("hops", [1, 2])
    @pytest.mark.parametrize("kind", ACQUISITION_KINDS)
    def test_gap_aligned_and_bytes_equal_formula(self, kind, hops):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=7, seed=5))
        sol = solve(ham, (0b0000111, 0b0001011, 0b0100101, 0b1010001))
        d = dominant_support(sol, 1e-4)
        for eps in (1e-8, 0.5):
            if hops == 1:
                cands = generate_candidates(d)
                sc = score_candidates(kind, cands, eps=eps, rng_seed=0)
            else:
                sc = score_two_hop(kind, d, eps=eps, rng_seed=0)
            assert len(sc) > 0 and len(sc.gap) == len(sc.states)
            raw = sol.energy - ham.diagonal(sc.states)
            ref = np.copysign(np.maximum(np.abs(raw), eps), raw)
            assert sc.gap.dtype == ref.dtype and sc.gap.tobytes() == ref.tobytes()
            picked = select_top_b(sc, 5)
            at = np.searchsorted(sc.states, picked.states)
            assert picked.gap.tobytes() == sc.gap[at].tobytes()


class TestScoreCandidates:
    def _setup(self, seed=0):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=5, seed=seed))
        sol = solve(ham, (0, 3, 5))
        d = dominant_support(sol, 1e-4)
        cands = generate_candidates(d)
        return ham, sol, d, cands

    def test_en_matches_en_score_elementwise(self):
        ham, sol, d, cands = self._setup()
        sc = score_candidates("en", cands, eps=1e-8)
        for diagonal, nu, score in zip(ham.diagonal(sc.states), sc.coupling, sc.score):
            assert np.isclose(score, abs(nu) ** 2 / max(abs(sol.energy - diagonal), 1e-8))

    def test_coupling_only_squares_nu(self):
        ham, sol, d, cands = self._setup()
        sc = score_candidates("coupling_only", cands)
        for nu, score in zip(sc.coupling, sc.score):
            assert np.isclose(score, abs(nu) ** 2)
            assert score >= 0

    def test_denom_only_ignores_coupling(self):
        ham, sol, d, cands = self._setup()
        sc = score_candidates("denom_only", cands, eps=1e-8)
        for diagonal, score in zip(ham.diagonal(sc.states), sc.score):
            assert np.isclose(score, 1.0 / max(abs(sol.energy - diagonal), 1e-8))

    def test_diag_only_ranks_lowest_diagonal_first(self):
        diagonals = {0: 5.0, 1: -2.0, 2: 0.0}
        scored = ranked(list(diagonals), [-dv for dv in diagonals.values()])
        picked = select_top_b(scored, 3)
        assert [diagonals[s] for s in picked.states.tolist()] == [-2.0, 0.0, 5.0]

    def test_random_same_seed_same_order(self):
        ham, sol, d, cands = self._setup()
        a = score_candidates("random", cands, rng_seed=99)
        b = score_candidates("random", cands, rng_seed=99)
        assert a.score.tolist() == b.score.tolist()
        c = score_candidates("random", cands, rng_seed=100)
        assert a.score.tolist() != c.score.tolist()

    def test_random_requires_seed(self):
        ham, sol, d, cands = self._setup()
        with pytest.raises(ValueError, match="rng_seed"):
            score_candidates("random", cands)

    def test_unknown_kind_rejected(self):
        ham, sol, d, cands = self._setup()
        with pytest.raises(ValueError, match="kind"):
            score_candidates("best", cands)

    @pytest.mark.parametrize("state", [-1, 64, 85])
    def test_out_of_range_state_rejected(self, monkeypatch, state):
        # 85 = 64 + 21 aliases the subspace state 21 in its low six bits.
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=6, seed=0))
        sol = solve(ham, (21, 42))
        d = dominant_support(sol, 1e-4)
        # A subspace holding the state has no matrix, so no solution to score.
        with pytest.raises(ValueError, match=r"\[0, 2\^6\)"):
            solve(ham, (21, 42, state))
        # A frontier derives its states, so none of them can be the state:
        # all lie in [0, 2^6), outside the subspace.
        for _ in both_set_paths(monkeypatch):
            for hops in (1, 2):
                states = Frontier(d, hops).states
                assert len(states) and states.min() >= 0 and states.max() < 64
                assert not np.isin(states, (21, 42)).any()

    def test_support_outside_subspace_rejected(self):
        # Subspace.positions gives 240 row -1, which would read the last
        # row's amplitudes and coefficient, state 51's; row 2 is past both.
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=8, seed=0))
        sol = solve(ham, (15, 51))
        for rows in (sol.subspace.positions([240]), np.array([2])):
            with pytest.raises(ValueError, match=r"support rows must lie in \[0, 2\)"):
                DominantSupport(sol, rows)
        # A support's states are its solution's at its rows.
        assert DominantSupport(sol, np.array([1])).states.tolist() == [51]

    def test_unchecked_frontier_cannot_be_made(self):
        # A frontier holding a subspace state (15) or one past 2^8 (300), or
        # pairs of -7, which would score every nu 0, cannot be written: a
        # frontier takes its support and horizon, and derives the rest.
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=8, seed=0))
        sol = solve(ham, (15, 51, 85, 170, 60, 195))
        d = dominant_support(sol, 1e-4)
        frontier = Frontier(d)
        pairs = np.full_like(frontier.pairs, -7)
        with pytest.raises(TypeError):
            Frontier(d, frontier.states, pairs)
        with pytest.raises(TypeError):
            Frontier(d, states=np.array([15, 300]))
        with pytest.raises(TypeError):
            Frontier(d, pairs=pairs)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(frontier, pairs=pairs)
        for hops in (0, 3):
            with pytest.raises(ValueError, match=f"hops must be 1 or 2, got {hops}"):
                Frontier(d, hops)
        assert np.abs(coupling_map(frontier)).max() > 0

    def test_frontier_scored_only_by_its_own_support(self):
        # Rows (15, 14) name rows (14, 15) reversed, and rows (14, 14, 15)
        # repeat 14, which coupling_map would sum twice: that moved nu by up
        # to 0.523 and the top three picks to (30, 78, 46).  Neither support
        # can be made, so each frontier steps from and is scored against
        # the one support of its rows.
        ham, _ = build_model(ModelSpec(kind="tfim", n=8, seed=0))
        sol = solve(ham, range(16))
        for rows in ([15, 14], [14, 14, 15]):
            with pytest.raises(ValueError, match="strictly ascending"):
                DominantSupport(sol, np.array(rows))
        d = DominantSupport(sol, np.array([14, 15]))
        frontier = generate_candidates(d)
        assert frontier.dominant is d
        assert select_top_b(score_candidates("en", frontier), 3).states.tolist() == [30, 31, 143]

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
            cands = generate_candidates(d)
            if len(cands) == 0:
                continue
            cands_scaled = generate_candidates(d_scaled)
            assert np.array_equal(cands.states, cands_scaled.states)
            a = score_candidates("en", cands)
            b = score_candidates("en", cands_scaled)
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
            cands = generate_candidates(d)
            if len(cands) < 2:
                continue
            scored = score_candidates("en", cands)
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
        one_hop = generate_candidates(d).states
        scored = score_two_hop("en", d)
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
        one_hop = generate_candidates(d)
        direct_scores = score_candidates("en", one_hop)
        direct = dict(zip(direct_scores.states.tolist(), direct_scores.score))
        chained_scores = score_two_hop("en", d)
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
        one_hop = generate_candidates(d)
        assert one_hop.states.tolist() == [0b011, 0b110]
        scored = score_two_hop("en", d)
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
