"""Tests for restricted-matrix assembly and the subspace eigensolve."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import assqd.oracle as oracle_mod
import assqd.subspace as subspace_mod
from assqd.bench import make_row, prepare_instance
from assqd.driver import RunConfig, RunError, run_as_sqd
from assqd.models import ModelSpec, build_model
from assqd.oracle import ConvergenceError, exact_lowest
from assqd.pauli import (
    PauliHamiltonian,
    PauliTerm,
    _SupportTables,
    _term_block,
    parse_hamiltonian,
)
from assqd.subspace import (
    DominantSupport,
    RestrictedMatrix,
    Subspace,
    build_restricted,
    dominant_support,
    extend_restricted,
    lowest_eigenpair,
)
from conftest import counts_of, dense_matrix, random_hamiltonian


def _with_odd_y(ham: PauliHamiltonian) -> PauliHamiltonian:
    """The same Hamiltonian plus one Y on qubit 0, which makes it complex."""
    complex_ham = PauliHamiltonian(ham.n, list(ham.terms) + [PauliTerm(1, 1, 0.7)])
    assert not complex_ham.is_real
    return complex_ham


class TestSubspace:
    def test_duplicates_rejected_in_constructor(self):
        with pytest.raises(ValueError, match="unique"):
            Subspace((1, 1))


class TestBuildRestricted:
    def test_single_bond_pair(self):
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        m = build_restricted(h, Subspace((1, 2)))
        assert np.allclose(m.dense(), [[-1.0, 2.0], [2.0, -1.0]])

    def test_singleton_is_diagonal_entry(self):
        h = parse_hamiltonian("1.0 ZZ\n0.5 ZI\n")
        m = build_restricted(h, Subspace((3,)))
        assert m.dense().shape == (1, 1)
        assert np.isclose(m.dense()[0, 0], h.diagonal(3))

    def test_full_basis_matches_dense(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            h = random_hamiltonian(n, 10, rng)
            order = [int(s) for s in rng.permutation(1 << n)]
            got = build_restricted(h, Subspace(tuple(order))).dense()
            dense = dense_matrix(h)
            for i, s_i in enumerate(order):
                for j, s_j in enumerate(order):
                    assert np.isclose(got[i, j], dense[s_i, s_j], atol=1e-13)

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
            assert np.array_equal(m.dense(), self._elementwise(h, states))

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
            assert np.array_equal(m.dense(), self._elementwise(h, states))

    @pytest.mark.parametrize("kind", ["heisenberg", "tfim"])
    def test_models_bit_identical_to_elementwise(self, kind):
        ham, _ = build_model(ModelSpec(kind=kind, n=8, seed=1))
        rng = np.random.default_rng(3)
        states = tuple(int(s) for s in rng.choice(256, size=120, replace=False))
        got = build_restricted(ham, Subspace(states)).dense()
        ref = self._elementwise(ham, states)
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    def test_empty_subspace_rejected(self):
        h = parse_hamiltonian("1.0 Z\n")
        with pytest.raises(ValueError, match="empty"):
            build_restricted(h, Subspace(()))

    @staticmethod
    def _skewed(skew: float):
        """XX + YY + ZZ on two qubits, one direction of each pair skewed.

        Two extra rows on the XX + YY column of the compiled block add
        skew/2 * (1 - (-1)^{bit 0}), i.e. skew to the amplitude of the
        column whose state is the smaller of the two (bit 0 set).
        """
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        z_masks, weights = _term_block(
            (h._groups[x] for x in h.offdiag_masks), h.dtype)
        h.__dict__["_offdiag_tables"] = _SupportTables(
            np.vstack([z_masks, [[0], [0b01]]]),
            np.vstack([weights, [[skew / 2], [-skew / 2]]]),
        )
        return h

    def test_hermiticity_enforced_on_type(self):
        # The relative error, 5e-4, is far beyond the check's tolerance.
        h = self._skewed(1e-3)
        skewed = h.amplitude_table([0b01, 0b10])[h.offdiag_masks.index(0b11)]
        assert np.isclose(skewed[0], 2.0 + 1e-3, rtol=0, atol=1e-12)
        assert skewed[1] == 2.0
        # The patched block reaches amplitude_table through the mask's table.
        tables = h._offdiag_tables
        assert tables.tabled.tolist() == [0] and not len(tables.direct)
        assert skewed[0] in tables.values
        # |01> and |10> couple through XX + YY; both sides are new here.
        with pytest.raises(ValueError, match="Hermitian"):
            build_restricted(h, Subspace((1, 2)))
        with pytest.raises(ValueError, match="Hermitian"):
            extend_restricted(build_restricted(h, Subspace((0,))), [1, 2])
        # Old |01>, new |10>: the new column is checked against the old one.
        with pytest.raises(ValueError, match="Hermitian"):
            extend_restricted(build_restricted(h, Subspace((1,))), [2])
        with pytest.raises(ValueError, match="Hermitian"):
            extend_restricted(build_restricted(h, Subspace((2,))), [1])

    # The check is np.allclose's: |a - b| <= 1e-12 + 1e-5 |b|, 2e-5 here.
    @pytest.mark.parametrize("skew, hermitian", [
        (0.99 * 2e-5, True), (1.01 * 2e-5, False), (np.nan, False),
    ], ids=["below", "above", "nan"])
    def test_hermiticity_bound(self, skew, hermitian):
        h = self._skewed(skew)
        if hermitian:
            m = build_restricted(h, Subspace((1, 2))).dense()
            assert abs(m[1, 0] - m[0, 1]) > 0.98 * 2e-5
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                build_restricted(h, Subspace((1, 2)))


class TestExtendRestricted:
    def test_matches_full_rebuild(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            n = 6
            h = random_hamiltonian(n, 15, rng)
            base_states = tuple(int(s) for s in rng.choice(64, size=10, replace=False))
            outside = np.setdiff1d(np.arange(64), base_states)
            extra = [int(s) for s in rng.choice(outside, size=8, replace=False)]
            base = build_restricted(h, Subspace(base_states))
            grown = extend_restricted(base, extra)
            rebuilt = build_restricted(h, Subspace(base_states + tuple(extra)))
            assert grown.basis.states.tolist() == rebuilt.basis.states.tolist()
            assert np.allclose(grown.dense(), rebuilt.dense(), atol=1e-13)

    @pytest.mark.parametrize("extra", [[3], [5, 5]], ids=["present", "repeated"])
    def test_present_or_repeated_state_raises(self, extra):
        h = parse_hamiltonian("1.0 ZZZ\n")
        base = build_restricted(h, Subspace((0, 3)))
        with pytest.raises(ValueError, match="unique"):
            extend_restricted(base, extra)

    def test_takes_no_diagonal(self):
        # Heisenberg n = 8, seed 0: the first en step from S = (15, 51, 85,
        # 170) picks 101, 77 and 53.  Their diagonals shifted by -50 would
        # give E_S = -58.09, below E0 = -15.08; the matrix reads every H_kk
        # from its own H, so no caller can hand it one.
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=8, seed=0))
        base = build_restricted(ham, Subspace((15, 51, 85, 170)))
        picks = [101, 77, 53]
        with pytest.raises(TypeError):
            extend_restricted(base, picks, ham.diagonal(picks) - 50.0)
        with pytest.raises(TypeError):
            extend_restricted(base, picks, diagonal=ham.diagonal(picks) - 50.0)
        grown = extend_restricted(base, picks)
        assert grown.table[:, 0].tobytes() == ham.diagonal(grown.basis.states).tobytes()
        energy = lowest_eigenpair(grown).energy
        assert abs(energy - -11.3194059) < 1e-6
        assert energy >= exact_lowest(ham).e0


class TestMalformedRestrictedMatrix:
    """scipy's sparse constructors do not bound-check their indices: a link
    past the basis would reach ARPACK's products unchecked, where it can
    crash the interpreter, and a link of -2 would wrap in ``dense()``."""

    @pytest.fixture(scope="class")
    def matrix(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=10, seed=0))
        return build_restricted(ham, Subspace(range(200)))

    @pytest.mark.parametrize("link", [10**7, 200, -2])
    def test_link_out_of_range_rejected(self, matrix, link):
        links = matrix.links.copy()
        links[17, 1] = link
        with pytest.raises(ValueError, match="links"):
            RestrictedMatrix(matrix.ham, matrix.basis, matrix.table, links)

    def test_non_integer_links_rejected(self, matrix):
        with pytest.raises(ValueError, match="links"):
            RestrictedMatrix(matrix.ham, matrix.basis, matrix.table,
                             matrix.links.astype(np.float64))

    def test_table_in_the_other_layout_rejected(self, matrix):
        with pytest.raises(ValueError, match="one row per basis state"):
            RestrictedMatrix(matrix.ham, matrix.basis, matrix.table.T, matrix.links.T)


class TestLowestEigenpair:
    def test_two_by_two_closed_form(self):
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n1.0 ZZ\n")
        sol = lowest_eigenpair(build_restricted(h, Subspace((1, 2))))
        assert np.isclose(sol.energy, -3.0)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert np.allclose(sol.coefficients, expected)

    def test_one_by_one(self):
        m = RestrictedMatrix(parse_hamiltonian("4.5 III\n"), Subspace((6,)),
                             table=np.array([[4.5]]), links=np.array([[0]]))
        sol = lowest_eigenpair(m)
        assert np.isclose(sol.energy, 4.5)
        assert np.allclose(sol.coefficients, [1.0])

    def test_diagonal_matrix(self):
        m = RestrictedMatrix(parse_hamiltonian("-1.5 II\n4.0 ZI\n0.5 IZ\n"),
                             Subspace((0, 1, 2)),
                             table=np.array([[3.0], [-5.0], [2.0]]),
                             links=np.arange(3)[:, None])
        sol = lowest_eigenpair(m)
        assert np.isclose(sol.energy, -5.0)
        assert np.allclose(np.abs(sol.coefficients), [0.0, 1.0, 0.0])

    def test_rayleigh_consistency(self):
        rng = np.random.default_rng(41)
        h = random_hamiltonian(6, 20, rng)
        states = tuple(int(s) for s in rng.choice(64, size=25, replace=False))
        m = build_restricted(h, Subspace(states))
        sol = lowest_eigenpair(m)
        rayleigh = np.vdot(sol.coefficients, m.dense() @ sol.coefficients).real
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

    @pytest.mark.parametrize("odd_y", [False, True], ids=["real", "complex"])
    def test_iterative_path_matches_dense(self, monkeypatch, odd_y):
        rng = np.random.default_rng(53)
        h = random_hamiltonian(7, 25, rng)
        if odd_y:
            h = _with_odd_y(h)
        states = tuple(int(s) for s in rng.choice(128, size=40, replace=False))
        m = build_restricted(h, Subspace(states))
        dense_sol = lowest_eigenpair(m)
        monkeypatch.setattr(subspace_mod, "DENSE_SOLVE_MAX", 10)
        iter_sol = lowest_eigenpair(m)
        assert np.isclose(iter_sol.energy, dense_sol.energy, atol=1e-9)

    @pytest.mark.parametrize("odd_y", [False, True], ids=["real", "complex"])
    def test_iterative_path_is_deterministic(self, monkeypatch, odd_y):
        # Unseeded ARPACK starts each call from its own evolving random
        # state; the seeded start vector makes repeated solves bit-identical.
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=10, seed=0))
        if odd_y:
            ham = _with_odd_y(ham)
        m = build_restricted(ham, Subspace(tuple(range(300))))
        monkeypatch.setattr(subspace_mod, "DENSE_SOLVE_MAX", 10)
        first, second = lowest_eigenpair(m), lowest_eigenpair(m)
        assert first.energy.hex() == second.energy.hex()
        assert first.coefficients.tobytes() == second.coefficients.tobytes()

    @pytest.mark.parametrize(
        "text, size, guess",
        [("-1.4 II\n", 4, np.arange(1.0, 5.0)),
         ("1.0 YII\n", 8, np.eye(8, 1, dtype=complex)[:, 0])],
        ids=["real", "complex"],
    )
    def test_iterative_path_repeats_when_arpack_restarts(
        self, monkeypatch, text, size, guess
    ):
        # The Krylov space from the start vector goes invariant on these
        # degenerate spectra, so ARPACK draws a new start vector.  Drawn
        # from OS entropy, it would move the returned vector call to call.
        m = build_restricted(parse_hamiltonian(text), Subspace(range(size)))
        monkeypatch.setattr(subspace_mod, "DENSE_SOLVE_MAX", 2)
        results = {
            (sol.energy, sol.coefficients.tobytes())
            for sol in (lowest_eigenpair(m, guess) for _ in range(20))
        }
        assert len(results) == 1

    def test_lanczos_route_leaves_table_and_links_in_place(self):
        # Every entry of the full-basis TFIM matrix is kept, so its CSC form
        # holds the table itself, not a copy of it.
        ham, _ = build_model(ModelSpec(kind="tfim", n=8, seed=0))
        m = build_restricted(ham, Subspace(tuple(range(256))))
        assert len(m.basis) > subspace_mod.DENSE_SOLVE_MAX
        assert np.shares_memory(m.sparse().data, m.table)
        table, links = m.table.tobytes(), m.links.tobytes()
        lowest_eigenpair(m)
        assert m.table.tobytes() == table and m.links.tobytes() == links

    def test_zero_matrix_on_sparse_route(self, monkeypatch):
        # XXX maps 0, 1, 2 onto 7, 6, 5, none of them kept: H_S = 0, on
        # which ARPACK itself stops ("starting vector is zero").
        m = build_restricted(parse_hamiltonian("1.0 XXX\n"), Subspace((0, 1, 2)))
        assert not m.dense().any()
        monkeypatch.setattr(subspace_mod, "DENSE_SOLVE_MAX", 2)
        sol = lowest_eigenpair(m)
        assert sol.energy == 0.0
        assert np.isclose(np.linalg.norm(sol.coefficients), 1.0)

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

        # Only the basis matters here; no entry of H is read, so H is zero.
        matrix = sub.RestrictedMatrix(PauliHamiltonian(4, ()), Subspace(states),
                                      table=np.zeros((len(states), 1)),
                                      links=np.arange(len(states))[:, None])
        return sub.RestrictedSolution(energy=0.0, coefficients=c, matrix=matrix)

    def test_even_split_keeps_both(self):
        sol = self._solution([1.0, -1.0], (1, 2))
        d = dominant_support(sol, 0.25)
        assert d.states.tolist() == [1, 2]
        assert d.rows.tolist() == [0, 1]

    def test_small_weight_dropped(self):
        sol = self._solution([0.9995, 0.0316], (4, 9))
        d = dominant_support(sol, 0.1)
        assert d.states.tolist() == [4]

    def test_tau_zero_keeps_nonzero(self):
        sol = self._solution([0.6, 0.0, 0.8], (1, 2, 3))
        d = dominant_support(sol, 0.0)
        assert d.states.tolist() == [1, 3]
        assert d.rows.tolist() == [0, 2]

    def test_empty_falls_back_to_peak(self):
        sol = self._solution([0.6, 0.8], (5, 6))
        d = dominant_support(sol, 0.9)
        assert d.states.tolist() == [6]
        assert d.rows.tolist() == [1]

    def test_tau_validation(self):
        sol = self._solution([1.0], (0,))
        with pytest.raises(ValueError, match="tau"):
            dominant_support(sol, 1.0)

    def test_rows_outside_subspace_rejected(self):
        sol = self._solution([0.6, 0.8], (5, 6))
        for rows in ([-1, 0], [0, 2]):
            with pytest.raises(ValueError, match=r"support rows must lie in \[0, 2\)"):
                DominantSupport(sol, np.array(rows))
        assert DominantSupport(sol, np.array([0, 1])).states.tolist() == [5, 6]

    @pytest.mark.parametrize("rows", [[1, 0], [0, 0], [1, 1], [0, 1, 1]])
    def test_rows_not_strictly_ascending_rejected(self, rows):
        # A repeated row would be summed twice into every coupling, and a
        # set of rows has one support: the ascending one.
        sol = self._solution([0.6, 0.8], (5, 6))
        with pytest.raises(ValueError, match="strictly ascending"):
            DominantSupport(sol, np.array(rows))


class TestRestrictedNonConvergence:
    """ARPACK out of restarts on the sparse restricted route.

    With one restart the full n = 10 Heisenberg basis (m = 1024) converges
    no pair, so the failure must surface as ConvergenceError, then as a
    RunError before any record, then as an error row of a sweep.
    """

    @pytest.fixture(scope="class")
    def bundle(self):
        bundle = prepare_instance("heisenberg", 10, 0, 400, 0.2)
        full = counts_of(dict.fromkeys(range(1024), 1), n=10)
        return dataclasses.replace(bundle, counts=full)

    @pytest.fixture(autouse=True)
    def one_restart(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "LANCZOS_MAXITER", 1)
        monkeypatch.setattr(subspace_mod, "DENSE_SOLVE_MAX", 10)

    def test_lowest_eigenpair_raises(self, bundle):
        m = build_restricted(bundle.ham, Subspace(tuple(range(1024))))
        with pytest.raises(ConvergenceError, match="restarts"):
            lowest_eigenpair(m)

    def test_raised_through_the_direct_product(self, bundle, monkeypatch):
        # ARPACK multiplies through oracle._Product, not the CSR matrix.
        handed = []
        eigsh = scipy.sparse.linalg.eigsh

        def spy(operator, *args, **kwargs):
            handed.append(operator)
            return eigsh(operator, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
        m = build_restricted(bundle.ham, Subspace(tuple(range(1024))))
        with pytest.raises(ConvergenceError, match="restarts"):
            lowest_eigenpair(m)
        assert [type(op) for op in handed] == [oracle_mod._Product]
        assert handed[0].matrix.shape == (1024, 1024)

    def test_run_fails_before_any_record(self, bundle):
        with pytest.raises(RunError, match="restarts") as info:
            run_as_sqd(bundle.ham, bundle.counts, RunConfig(K=1024))
        assert info.value.records == ()

    def test_sweep_row_records_the_error(self, bundle):
        row, trace = make_row(bundle, "as-en", RunConfig(K=1024), shots=1024, eta=0.2)
        assert trace is None
        assert math.isnan(row.E_est)
        assert row.terminated.startswith("error: ") and "restarts" in row.terminated
