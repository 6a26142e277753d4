"""Tests for restricted-matrix assembly and the subspace eigensolve."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

import assqd.subspace as subspace_mod
from assqd.models import ModelSpec, build_model
from assqd.oracle import ConvergenceError, exact_lowest
from assqd.pauli import PauliHamiltonian, PauliTerm, parse_hamiltonian
from assqd.subspace import (
    RestrictedMatrix,
    Subspace,
    build_restricted,
    dominant_support,
    extend_restricted,
    lowest_eigenpair,
)
from conftest import random_hamiltonian


class TestSubspace:
    def test_extend_dedupes_preserving_order(self):
        s = Subspace(()).extend([5, 2, 5, 7, 2])
        assert s.states.tolist() == [5, 2, 7]
        assert s.positions([5, 2, 7, 3]).tolist() == [0, 1, 2, -1]

    def test_duplicates_rejected_in_constructor(self):
        with pytest.raises(ValueError, match="unique"):
            Subspace((1, 1))

    def test_extend_appends_only_novel(self):
        s = Subspace((3, 0)).extend([0, 4, 3, 9])
        assert s.states.tolist() == [3, 0, 4, 9]

    def test_membership(self):
        s = Subspace((3, 0))
        assert 3 in s
        assert 1 not in s
        assert len(s) == 2


class TestBuildRestricted:
    def test_single_bond_pair(self):
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        m = build_restricted(h, Subspace((1, 2)))
        assert np.allclose(m.entries, [[-1.0, 2.0], [2.0, -1.0]])

    def test_singleton_is_diagonal_entry(self):
        h = parse_hamiltonian("1.0 ZZ\n0.5 ZI\n")
        m = build_restricted(h, Subspace((3,)))
        assert m.entries.shape == (1, 1)
        assert np.isclose(m.entries[0, 0], h.diagonal(3))

    def test_full_basis_matches_dense(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            h = random_hamiltonian(n, 10, rng)
            order = [int(s) for s in rng.permutation(1 << n)]
            m = build_restricted(h, Subspace(tuple(order)))
            dense = h.dense_matrix()
            for i, s_i in enumerate(order):
                for j, s_j in enumerate(order):
                    assert np.isclose(m.entries[i, j], dense[s_i, s_j], atol=1e-13)

    @staticmethod
    def _elementwise(h, states):
        """The literal reference: one matrix_element call per entry."""
        ref = np.array([[h.matrix_element(a, b) for b in states] for a in states])
        return ref.real if h.is_real else ref

    def test_matches_elementwise_matrix_element(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            h = random_hamiltonian(6, 18, rng)
            assert not h.is_real
            states = tuple(int(s) for s in rng.choice(64, size=20, replace=False))
            m = build_restricted(h, Subspace(states))
            assert np.array_equal(m.entries, self._elementwise(h, states))

    def test_real_matches_elementwise_matrix_element(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            # Clearing z on the x bits turns every Y into X: all elements real.
            h = PauliHamiltonian(6, [
                PauliTerm(t.x_mask, t.z_mask & ~t.x_mask, t.coefficient)
                for t in random_hamiltonian(6, 18, rng).terms
            ])
            assert h.is_real
            states = tuple(int(s) for s in rng.choice(64, size=20, replace=False))
            m = build_restricted(h, Subspace(states))
            assert np.array_equal(m.entries, self._elementwise(h, states))

    @pytest.mark.parametrize("kind", ["heisenberg", "tfim"])
    def test_models_bit_identical_to_elementwise(self, kind):
        ham, _ = build_model(ModelSpec(kind=kind, n=8, seed=1))
        rng = np.random.default_rng(3)
        states = tuple(int(s) for s in rng.choice(256, size=120, replace=False))
        m = build_restricted(ham, Subspace(states))
        ref = self._elementwise(ham, states)
        assert m.entries.dtype == ref.dtype
        assert m.entries.tobytes() == ref.tobytes()

    def test_empty_subspace_rejected(self):
        h = parse_hamiltonian("1.0 Z\n")
        with pytest.raises(ValueError, match="empty"):
            build_restricted(h, Subspace(()))

    def test_hermiticity_enforced_on_type(self):
        with pytest.raises(ValueError, match="Hermitian"):
            RestrictedMatrix(
                entries=np.array([[0.0, 1.0], [2.0, 0.0]]), basis=Subspace((0, 1))
            )


class TestExtendRestricted:
    def test_matches_full_rebuild(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            n = 6
            h = random_hamiltonian(n, 15, rng)
            base_states = tuple(int(s) for s in rng.choice(64, size=10, replace=False))
            extra = [int(s) for s in rng.choice(64, size=8)]
            base = build_restricted(h, Subspace(base_states))
            grown = extend_restricted(h, base, extra)
            rebuilt = build_restricted(h, Subspace(base_states).extend(extra))
            assert grown.basis.states.tolist() == rebuilt.basis.states.tolist()
            assert np.allclose(grown.entries, rebuilt.entries, atol=1e-13)

    def test_no_new_states_returns_same_matrix(self):
        h = parse_hamiltonian("1.0 ZZ\n")
        base = build_restricted(h, Subspace((0, 3)))
        assert extend_restricted(h, base, [3, 0]) is base


class TestLowestEigenpair:
    def test_two_by_two_closed_form(self):
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        sol = lowest_eigenpair(build_restricted(h, Subspace((1, 2))))
        assert np.isclose(sol.energy, -3.0)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert np.allclose(sol.coefficients, expected)

    def test_one_by_one(self):
        m = RestrictedMatrix(entries=np.array([[4.5]]), basis=Subspace((6,)))
        sol = lowest_eigenpair(m)
        assert np.isclose(sol.energy, 4.5)
        assert np.allclose(sol.coefficients, [1.0])

    def test_diagonal_matrix(self):
        m = RestrictedMatrix(
            entries=np.diag([3.0, -5.0, 2.0]), basis=Subspace((0, 1, 2))
        )
        sol = lowest_eigenpair(m)
        assert np.isclose(sol.energy, -5.0)
        assert np.allclose(np.abs(sol.coefficients), [0.0, 1.0, 0.0])

    def test_rayleigh_consistency(self):
        rng = np.random.default_rng(41)
        h = random_hamiltonian(6, 20, rng)
        states = tuple(int(s) for s in rng.choice(64, size=25, replace=False))
        m = build_restricted(h, Subspace(states))
        sol = lowest_eigenpair(m)
        rayleigh = np.vdot(sol.coefficients, m.entries @ sol.coefficients).real
        assert np.isclose(rayleigh, sol.energy, atol=1e-10)

    def test_variational_bound(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=6, seed=0))
        e0 = exact_lowest(ham).e0
        rng = np.random.default_rng(43)
        for _ in range(10):
            size = int(rng.integers(1, 30))
            states = tuple(int(s) for s in rng.choice(64, size=size, replace=False))
            sol = lowest_eigenpair(build_restricted(ham, Subspace(states)))
            assert sol.energy >= e0 - 1e-9

    def test_interlacing_under_growth(self):
        ham, _ = build_model(ModelSpec(kind="tfim", n=6, seed=1))
        rng = np.random.default_rng(47)
        states = [int(s) for s in rng.choice(64, size=30, replace=False)]
        prev = None
        for size in [5, 10, 20, 30]:
            sol = lowest_eigenpair(build_restricted(ham, Subspace(tuple(states[:size]))))
            if prev is not None:
                assert sol.energy <= prev + 1e-12
            prev = sol.energy

    def test_completeness_on_full_basis(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=5, seed=3))
        full = Subspace(tuple(range(32)))
        sol = lowest_eigenpair(build_restricted(ham, full))
        assert abs(sol.energy - exact_lowest(ham).e0) <= 1e-10

    def test_iterative_path_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(53)
        h = random_hamiltonian(7, 25, rng)
        states = tuple(int(s) for s in rng.choice(128, size=40, replace=False))
        m = build_restricted(h, Subspace(states))
        dense_sol = lowest_eigenpair(m)
        monkeypatch.setattr(subspace_mod, "DENSE_SOLVE_MAX", 10)
        iter_sol = lowest_eigenpair(m)
        assert np.isclose(iter_sol.energy, dense_sol.energy, atol=1e-9)

    def test_phase_fix(self):
        rng = np.random.default_rng(59)
        h = random_hamiltonian(5, 15, rng)
        states = tuple(int(s) for s in rng.choice(32, size=12, replace=False))
        sol = lowest_eigenpair(build_restricted(h, Subspace(states)))
        pivot = sol.coefficients[int(np.argmax(np.abs(sol.coefficients)))]
        assert pivot.real > 0
        assert np.isclose(np.imag(pivot), 0.0, atol=1e-12)


class TestDominantSupport:
    def _solution(self, coeffs, states):
        c = np.asarray(coeffs, dtype=float)
        c = c / np.linalg.norm(c)
        import assqd.subspace as sub

        return sub.RestrictedSolution(
            energy=0.0, coefficients=c, subspace=Subspace(states)
        )

    def test_even_split_keeps_both(self):
        sol = self._solution([1.0, -1.0], (1, 2))
        d = dominant_support(sol, 0.25)
        assert d.states.tolist() == [1, 2]

    def test_small_weight_dropped(self):
        sol = self._solution([0.9995, 0.0316], (4, 9))
        d = dominant_support(sol, 0.1)
        assert d.states.tolist() == [4]

    def test_tau_zero_keeps_nonzero(self):
        sol = self._solution([0.6, 0.0, 0.8], (1, 2, 3))
        d = dominant_support(sol, 0.0)
        assert d.states.tolist() == [1, 3]

    def test_empty_falls_back_to_peak(self):
        sol = self._solution([0.6, 0.8], (5, 6))
        d = dominant_support(sol, 0.9)
        assert d.states.tolist() == [6]

    def test_tau_validation(self):
        sol = self._solution([1.0], (0,))
        with pytest.raises(ValueError, match="tau"):
            dominant_support(sol, 1.0)
