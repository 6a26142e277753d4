"""Tests for the matrix-free product, the CSR builder and reference eigensolves."""

from __future__ import annotations

import functools
import os
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import assqd.oracle as oracle_mod
import assqd.subspace as subspace_mod
from assqd.driver import RunConfig, run_as_sqd
from assqd.models import (
    DisorderInstance,
    ModelSpec,
    build_model,
    heisenberg_chain,
    tfim_chain,
)
from assqd.oracle import (
    DEGENERACY_GAP,
    RESIDUAL_TOL,
    ConvergenceError,
    EigenpairSet,
    apply_hamiltonian,
    exact_lowest,
    hermitian_lowest,
    popcount_sectors,
    save_eigenpairs,
)
from assqd.pauli import PauliHamiltonian, PauliTerm, parse_hamiltonian
from assqd.sampling import contaminated_distribution, sample_counts
from assqd.subspace import DENSE_SOLVE_MAX, Subspace, build_restricted, lowest_eigenpair
from conftest import dense_matrix, random_hamiltonian


class TestApplyHamiltonian:
    def test_z_on_zero_ket(self):
        h = parse_hamiltonian("1.0 Z\n")
        v = np.array([1.0, 0.0])
        assert np.allclose(apply_hamiltonian(h, v), [1.0, 0.0])

    def test_x_on_zero_ket(self):
        h = parse_hamiltonian("1.0 X\n")
        v = np.array([1.0, 0.0])
        assert np.allclose(apply_hamiltonian(h, v), [0.0, 1.0])

    def test_matches_dense_product(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            h = random_hamiltonian(n, int(rng.integers(1, 15)), rng)
            dim = 1 << n
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            expected = dense_matrix(h) @ v
            assert np.allclose(apply_hamiltonian(h, v), expected, atol=1e-12)

    def test_real_input_real_hamiltonian_stays_real(self):
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n")
        out = apply_hamiltonian(h, np.array([0.0, 1.0, 0.0, 0.0]))
        assert out.dtype == np.float64

    def test_dimension_mismatch_rejected(self):
        h = parse_hamiltonian("1.0 ZZ\n")
        for shape in [(3,), (3, 2), (4, 2, 1)]:
            with pytest.raises(ValueError, match="dimension"):
                apply_hamiltonian(h, np.zeros(shape))

    @pytest.mark.parametrize("complex_ham", [False, True])
    def test_block_matches_each_column_bit_for_bit(self, complex_ham):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=8, seed=1))
        if complex_ham:
            ham = _with_dm_bond(ham)
        rng = np.random.default_rng(5)
        block = rng.standard_normal((1 << 8, 3))
        out = apply_hamiltonian(ham, block)
        assert out.shape == block.shape
        for col in range(3):
            alone = apply_hamiltonian(ham, np.ascontiguousarray(block[:, col]))
            assert np.array_equal(out[:, col], alone)
        assert np.array_equal(apply_hamiltonian(ham, block[:, :1])[:, 0], out[:, 0])

    @pytest.mark.parametrize("support", ["dense", "sector", "leaking"])
    def test_bytes_equal_the_full_gather(self, support):
        # The scatter from the vectors' support against the gather over
        # every state it replaced.  Under Heisenberg + X0 a sector's vector
        # has its product outside the sector, so the scatter must reach
        # states where no column is nonzero.
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=10, seed=2))
        rng = np.random.default_rng(3)
        block = rng.standard_normal((1 << 10, 3))
        block[::7, 0] = 0.0  # the columns' supports differ
        if support != "dense":
            sector = np.bitwise_count(np.arange(1 << 10)) == 5
            block[~sector] = 0.0
        if support == "leaking":
            ham = PauliHamiltonian(10, list(ham.terms) + [PauliTerm(1, 0, 0.4)])
        for h in (ham, _with_dm_bond(ham)):
            for v in (block, block[:, 0], block + 0.5j * block[::-1]):
                got, ref = apply_hamiltonian(h, v), _full_gather(h, v)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        if support == "leaking":
            assert np.any(apply_hamiltonian(ham, block)[~sector] != 0)
        elif support == "sector":
            assert not np.any(apply_hamiltonian(ham, block)[~sector])

    def test_sector_pairs_of_the_oracle_bytes_equal_the_full_gather(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=14, seed=0))
        pairs = exact_lowest(ham, 2)
        assert np.count_nonzero(np.any(pairs.vectors != 0, axis=1)) < 1 << 13
        got, ref = apply_hamiltonian(ham, pairs.vectors), _full_gather(ham, pairs.vectors)
        assert got.tobytes() == ref.tobytes()


class TestSparseMatrix:
    def test_random_hamiltonians_match_dense_bit_for_bit(self):
        rng = np.random.default_rng(41)
        complex_count = 0
        for _ in range(200):
            n = int(rng.integers(1, 8))
            h = random_hamiltonian(n, int(rng.integers(1, 4 * n + 4)), rng)
            complex_count += not h.is_real
            assert np.array_equal(_full_csr(h).toarray(), dense_matrix(h))
        assert complex_count > 100

    @pytest.mark.parametrize("kind", ["heisenberg", "tfim"])
    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_models_match_dense_bit_for_bit(self, kind, n):
        ham, _ = build_model(ModelSpec(kind=kind, n=n, seed=n))
        matrix = _full_csr(ham)
        assert matrix.indices.dtype == np.int32
        assert np.array_equal(matrix.toarray(), dense_matrix(ham))

    def test_cancelled_entries_dropped(self):
        h = parse_hamiltonian("1.0 XX\n1.0 YY\n")
        # XX + YY couples |01> and |10> only; its |00>/|11> entries cancel.
        assert _full_csr(h).nnz == 2

    def test_size_limit(self):
        ham = PauliHamiltonian(21, [PauliTerm(0, 1, 1.0)])
        for method in (None, "lanczos"):
            with pytest.raises(ValueError, match="n <= 20"):
                exact_lowest(ham, method=method)

    # Heisenberg keeps 5 of 9 padded entries per row at n = 8, more than
    # half, so the prune of cancelled entries would leave views onto the
    # padded arrays; TFIM cancels nothing.
    @pytest.mark.parametrize("kind", ["heisenberg", "tfim"])
    def test_blocks_hold_no_padding(self, kind):
        ham, _ = build_model(ModelSpec(kind=kind, n=8, seed=0))
        blocks = [_full_csr(ham)]
        if popcount_sectors(ham) is not None:
            blocks += [b for _, b in _sector_blocks(ham)]
        for block in blocks:
            for array in (block.data, block.indices):
                held = array if array.base is None else array.base
                assert held.size == block.nnz


def _same_bytes_as_eigh(matrix, count) -> bool:
    got = hermitian_lowest(matrix, count)
    ref = scipy.linalg.eigh(matrix, subset_by_index=(0, count - 1))
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(got, ref))


class TestDenseRoute:
    """hermitian_lowest's direct ?syevr/?heevr call against scipy's eigh."""

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 33, 100, 177, 249, 250])
    def test_bytes_equal_eigh(self, real, m):
        rng = np.random.default_rng(m)
        ham = random_hamiltonian(8, 40, rng)
        # One odd-Y term on qubit 0 makes H complex; clearing the z bits
        # under x makes it real.
        terms = [PauliTerm(t.x_mask, t.z_mask & ~t.x_mask, t.coefficient)
                 for t in ham.terms] + ([] if real else [PauliTerm(1, 1, 0.7)])
        ham = PauliHamiltonian(8, terms)
        assert ham.is_real == real
        states = rng.choice(256, size=m, replace=False)
        matrix = build_restricted(ham, Subspace(states)).dense()
        for count in range(1, min(8, m) + 1):
            assert _same_bytes_as_eigh(matrix, count)

    def test_bytes_equal_eigh_on_an_as_en_run(self, monkeypatch):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=10, seed=0))
        pairs = exact_lowest(ham)
        counts = sample_counts(
            contaminated_distribution(pairs.psi0, pairs.psi1, 0.1), 2000, 0)
        seen = []

        def record(matrix, count, guess=None):
            if isinstance(matrix, np.ndarray):
                seen.append(matrix.copy())
            return hermitian_lowest(matrix, count, guess)

        monkeypatch.setattr(subspace_mod, "hermitian_lowest", record)
        trace = run_as_sqd(ham, counts, RunConfig(K=50, B=20, T=10))
        assert [r.subspace_size for r in trace.records] == list(range(50, 251, 20))
        # The solves up to DENSE_SOLVE_MAX states take the dense route.
        assert [m.shape[0] for m in seen] == list(range(50, DENSE_SOLVE_MAX + 1, 20))
        assert len(seen) == 7
        for matrix in seen:
            for count in range(1, 9):
                assert _same_bytes_as_eigh(matrix, count)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_non_finite_entry_raises(self, bad, dtype):
        matrix = np.eye(4, dtype=dtype)
        matrix[1, 2] = matrix[2, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            hermitian_lowest(matrix, 1)

    def test_count_beyond_the_order_raises(self):
        # The sparse routes too: LAPACK gives up to dim pairs, eigsh fewer
        # than dim and eigs fewer than dim - 1, and past that scipy warned
        # and then raised TypeError.  Each route refuses before any work.
        rng = np.random.default_rng(5)
        for real in (True, False):
            matrix = rng.standard_normal((5, 5)) + (0 if real else 1j) * rng.standard_normal((5, 5))
            matrix = matrix + matrix.conj().T
            for form, count in [("dense", 6), ("csr", 5 if real else 4), ("csc", 5 if real else 4)]:
                given = matrix if form == "dense" else getattr(scipy.sparse, f"{form}_array")(matrix)
                with pytest.raises(ValueError, match=f"cannot take {count} eigenpairs"):
                    hermitian_lowest(given, count)


class TestHermitianLowest:
    def test_sparse_input_left_as_given(self):
        # One block per x_mask leaves column indices unsorted; sorting
        # them in place would change the products' rounding, and E0's bits.
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=10, seed=0))
        matrix = _full_csr(ham)
        indices, data = matrix.indices.copy(), matrix.data.copy()
        assert not matrix.has_sorted_indices
        hermitian_lowest(matrix, 2)
        assert np.array_equal(matrix.indices, indices)
        assert np.array_equal(matrix.data, data)

    def test_partial_convergence_reports_the_worst_residual(self, monkeypatch):
        # ARPACK out of restarts with one of two pairs, its energy 1e-3 off:
        # the error carries that pair's residual norm.
        solver = scipy.sparse.linalg.eigsh

        def partial(operator, *args, **kwargs):
            vals, vecs = solver(operator, *args, **kwargs)
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "out of restarts", vals[:1] + 1e-3, vecs[:, :1])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", partial)
        ham, _ = build_model(ModelSpec(kind="tfim", n=8, seed=0))
        with pytest.raises(ConvergenceError, match="converged only 1/2") as caught:
            hermitian_lowest(_full_csr(ham), 2)
        assert caught.value.achieved_residual == pytest.approx(1e-3, rel=1e-6)

    @pytest.mark.parametrize("fmt", ["coo", "lil", "dia"])
    def test_other_sparse_formats_rejected(self, fmt):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=6, seed=0))
        matrix = _full_csr(ham).asformat(fmt)
        with pytest.raises(TypeError, match=fmt.upper()):
            hermitian_lowest(matrix, 1)

    @pytest.mark.parametrize("odd_y", [False, True])
    def test_csc_gives_the_bits_of_sorted_csr(self, odd_y):
        # Both products add each row's terms in ascending column order.
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=8, seed=0))
        if odd_y:
            ham = PauliHamiltonian(ham.n, list(ham.terms) + [PauliTerm(1, 1, 0.3)])
        csr = _full_csr(ham)
        csr.sort_indices()
        guess = np.ones(csr.shape[0])
        for args in ((2,), (1, guess)):
            (a_vals, a_vecs), (b_vals, b_vecs) = (
                hermitian_lowest(m, *args) for m in (csr, csr.tocsc()))
            assert a_vals.tobytes() == b_vals.tobytes()
            assert a_vecs.tobytes() == b_vecs.tobytes()

    # ARPACK's tolerance is residual_bound(r) / (10 r), r the matrix's
    # largest row sum, so its residual target is RESIDUAL_TOL / 10 up to
    # r ~ 7e4 and 6.4 eps r past it: a fixed relative tol of 1e-12 would
    # leave ~2e-7 at E0 ~ -2e5.
    @pytest.mark.parametrize("scale", [1e3, 1e4])
    @pytest.mark.parametrize("route, n", [("one-matrix", 10), ("sector", 14)])
    def test_large_norm_passes_every_residual_check(self, monkeypatch, route, n, scale):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=n, seed=0))
        scaled = _scaled(ham, scale)
        method = "lanczos" if route == "one-matrix" else None
        if route == "sector":
            _refuse_full_csr(monkeypatch)
        pairs = exact_lowest(scaled, method=method)
        unscaled = exact_lowest(ham, method=method)
        assert pairs.e0 == pytest.approx(scale * unscaled.e0, rel=1e-12)
        # The restricted solve past DENSE_SOLVE_MAX, on the same matrix.
        states = Subspace(tuple(range(DENSE_SOLVE_MAX + 50)))
        sol = lowest_eigenpair(build_restricted(scaled, states))
        unscaled = lowest_eigenpair(build_restricted(ham, states))
        assert sol.energy == pytest.approx(scale * unscaled.energy, rel=1e-12)

    # ARPACK gets the matrix as oracle._Product, whose 1-D products must
    # give the bits of eigsh on the CSR matrix itself, the call as made
    # before it: every sparse route (restricted solve, sector block, one
    # CSR matrix) goes through this one call.
    @pytest.mark.parametrize("real", [True, False])
    def test_sparse_bytes_equal_eigsh_on_the_matrix(self, real):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=12, seed=1))
        if not real:
            ham = _with_dm_bond(ham)
        assert ham.is_real == real
        for matrix in (_full_csr(ham), _sector_blocks(ham)[5][1]):
            for count in (1, 2):
                assert _same_bytes_as_eigsh(matrix, count)

    def test_sparse_bytes_equal_eigsh_on_an_expand_wide_run(self, monkeypatch):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=12, seed=0))
        pairs = exact_lowest(ham)
        counts = sample_counts(
            contaminated_distribution(pairs.psi0, pairs.psi1, 0.2), 4000, 0)
        seen = []

        def record(matrix, count, guess=None):
            if not isinstance(matrix, np.ndarray):
                seen.append((matrix.copy(), guess.copy()))
            return hermitian_lowest(matrix, count, guess)

        monkeypatch.setattr(subspace_mod, "hermitian_lowest", record)
        trace = run_as_sqd(ham, counts, RunConfig(K=50, B=100, T=8))
        assert trace.records[-1].subspace_size == 850
        # Every solve past the first is warm, and from 250 states sparse.
        assert [m.shape[0] for m, _ in seen] == list(range(250, 851, 100))
        for matrix, guess in seen:
            assert guess.dtype == np.float64
            for count in (1, 2):
                assert _same_bytes_as_eigsh(matrix, count, guess)

    # The guess sets ARPACK's start vector and nothing else: with none the
    # call is the cold one, v0 drawn with seed 0.
    @pytest.mark.parametrize("real", [True, False])
    def test_no_guess_is_the_seeded_eigsh_call(self, real):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=10, seed=2))
        if not real:
            ham = _with_dm_bond(ham)
        matrix = build_restricted(ham, Subspace(tuple(range(300)))).sparse()
        assert _same_bytes_as_eigsh(matrix, 1)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(
            hermitian_lowest(matrix, 1), hermitian_lowest(matrix, 1, None)))

    # A start vector holds only the blocks it touches, so a guess on the
    # upper block of a block-diagonal H must not hide the lower one: the
    # seeded noise beside the guess reaches it.
    @pytest.mark.parametrize("real", [True, False])
    def test_guess_on_one_block_finds_the_lower_block(self, real):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=10, seed=0))
        if not real:
            ham = _with_dm_bond(ham)
        # Two popcount sectors of the restricted H; neither reaches the other.
        upper = build_restricted(ham, Subspace(_with_popcount(10, 4)[:200])).sparse()
        lower = build_restricted(ham, Subspace(_with_popcount(10, 5)[:200])).sparse()
        e_upper, v_upper = scipy.linalg.eigh(upper.toarray(), subset_by_index=(0, 0))
        e_lower = scipy.linalg.eigvalsh(lower.toarray(), subset_by_index=(0, 0))
        assert e_lower[0] < e_upper[0] - 0.1
        matrix = scipy.sparse.block_diag([upper, lower], format="csr")
        guess = np.concatenate([v_upper[:, 0], np.zeros(lower.shape[0])])
        vals, vecs = hermitian_lowest(matrix, 1, guess)
        assert vals[0] == pytest.approx(e_lower[0], abs=1e-10)
        assert np.linalg.norm(vecs[:upper.shape[0], 0]) < 1e-8
        # Without the noise, ARPACK stays in the block the start touches.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle_mod, "WARM_MIX", 0.0)
            cold_block, _ = hermitian_lowest(matrix, 1, guess)
        assert cold_block[0] == pytest.approx(e_upper[0], abs=1e-10)

    def test_zero_or_misshapen_guess_raises(self):
        matrix = scipy.sparse.csr_array(np.diag(np.arange(30.0)))
        for guess in (np.zeros(30), np.ones(29), np.full(30, np.nan)):
            with pytest.raises(ValueError, match="guess"):
                hermitian_lowest(matrix, 1, guess)

    # The Krylov basis is sized to the pairs asked for: 10 vectors for one
    # or two pairs, the 20 of scipy's default at count 8, and never more
    # than the matrix's order.
    @pytest.mark.parametrize("real", [True, False])
    def test_krylov_size_handed_to_arpack(self, monkeypatch, real):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=10, seed=2))
        if not real:
            ham = _with_dm_bond(ham)
        handed = []
        for name in ("eigsh", "eigs"):
            solver = getattr(scipy.sparse.linalg, name)

            def spy(operator, *args, solver=solver, **kwargs):
                handed.append(kwargs["ncv"])
                return solver(operator, *args, **kwargs)

            monkeypatch.setattr(scipy.sparse.linalg, name, spy)
        matrix = build_restricted(ham, Subspace(tuple(range(300)))).sparse()
        for count in (1, 2, 8):
            hermitian_lowest(matrix, count)
        small = build_restricted(ham, Subspace(tuple(range(8)))).sparse()
        hermitian_lowest(small, 2)
        assert handed == [10, 10, 20, 8]


class TestExactLowest:
    def test_heisenberg_n2_spectrum(self):
        ham = heisenberg_chain(2, 1.0, DisorderInstance((0.0, 0.0), 0))
        pairs = exact_lowest(ham)
        assert np.isclose(pairs.e0, -6.0)
        assert np.isclose(pairs.e1, 2.0)
        assert not pairs.degenerate_ground

    def test_diagonal_field_hamiltonian(self):
        n = 4
        h = PauliHamiltonian(n, [PauliTerm(0, 1 << i, 1.0) for i in range(n)])
        pairs = exact_lowest(h)
        assert np.isclose(pairs.e0, -float(n))
        # Ground state is the all-ones bitstring.
        expected = np.zeros(1 << n)
        expected[(1 << n) - 1] = 1.0
        assert np.allclose(pairs.psi0, expected)

    def test_degenerate_ground_flagged(self):
        ham = tfim_chain(2, 1.0, 0.0, DisorderInstance((0.0, 0.0), 0))
        pairs = exact_lowest(ham)
        assert pairs.degenerate_ground
        assert np.isclose(pairs.e0, pairs.e1)

    def test_dense_lanczos_agreement(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=10, seed=0))
        dense = _dense_reference(ham)
        lanczos = exact_lowest(ham, method="lanczos")
        assert abs(dense.e0 - lanczos.e0) < 1e-8
        assert abs(dense.e1 - lanczos.e1) < 1e-8
        assert abs(np.vdot(dense.psi0, lanczos.psi0)) > 1.0 - 1e-8

    def test_dense_lanczos_agreement_complex(self):
        ham = random_hamiltonian(8, 40, np.random.default_rng(8))
        assert not ham.is_real
        dense = _dense_reference(ham)
        lanczos = exact_lowest(ham, method="lanczos")
        assert abs(dense.e0 - lanczos.e0) <= 1e-10
        assert abs(dense.e1 - lanczos.e1) <= 1e-10
        assert abs(np.vdot(dense.psi0, lanczos.psi0)) >= 1.0 - 1e-8

    # The route follows from H at every n: a popcount-conserving H, real
    # or complex, never builds the block of all 2^n states, and TFIM,
    # which mixes the sectors, builds that one block and no other.
    @pytest.mark.parametrize("kind", ["heisenberg", "dm", "tfim"])
    @pytest.mark.parametrize("n", [2, 8, 10, 11, 12, 13, 14])
    def test_default_route_never_builds_dense_matrix(self, monkeypatch, kind, n):
        ham = _sector_instance(kind, n, 0)
        built = []
        build = oracle_mod._csr_block

        def record(h, states):
            built.append(len(states))
            return build(h, states)

        monkeypatch.setattr(oracle_mod, "_csr_block", record)
        pairs = exact_lowest(ham)
        assert pairs.e0 < pairs.e1
        if kind == "tfim":
            assert built == [1 << n]
        else:
            assert built and 1 << n not in built

    # count = dimension included: a block this small is solved densely.
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_dimensions_solve_dense_by_default(self, n):
        ham = random_hamiltonian(n, 3 * n, np.random.default_rng(n))
        expected = scipy.linalg.eigvalsh(dense_matrix(ham))
        for count in range(2, min(8, 1 << n) + 1):
            pairs = exact_lowest(ham, count=count)
            assert np.allclose(pairs.energies, expected[:count], atol=1e-10)

    @pytest.mark.parametrize("n", [8, 10])
    def test_degenerate_ground_flagged_on_sparse_route(self, n):
        ham = tfim_chain(n, 1.0, 0.0, DisorderInstance((0.0,) * n, 0))
        pairs = exact_lowest(ham, method="lanczos")
        assert pairs.degenerate_ground
        assert abs(pairs.e0 + n) <= 1e-10
        assert abs(pairs.e1 + n) <= 1e-10

    # With the 10 Krylov vectors of a count-2 solve, ten restarts converge
    # one of two pairs on the Heisenberg instance's one CSR block (a finite
    # partial residual; 8-15 restarts all do, 7 converge none), and one
    # restart converges none on the TFIM one (residual inf).
    @pytest.mark.parametrize(
        "kind, restarts, finite",
        [("heisenberg", 10, True), ("tfim", 1, False)],
        ids=["heisenberg-True", "tfim-False"],
    )
    def test_arpack_non_convergence_raises(self, monkeypatch, kind, restarts, finite):
        ham, _ = build_model(ModelSpec(kind=kind, n=12, seed=0))
        monkeypatch.setattr(oracle_mod, "LANCZOS_MAXITER", restarts)
        with pytest.raises(ConvergenceError, match="restarts") as info:
            exact_lowest(ham, method="lanczos")
        assert np.isfinite(info.value.achieved_residual) == finite

    def test_variational_floor(self):
        rng = np.random.default_rng(23)
        ham = random_hamiltonian(6, 20, rng)
        pairs = exact_lowest(ham)
        for _ in range(20):
            v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            v /= np.linalg.norm(v)
            rayleigh = np.vdot(v, apply_hamiltonian(ham, v)).real
            assert rayleigh >= pairs.e0 - 1e-9

    def test_eigenvector_orthogonality(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=8, seed=1))
        pairs = exact_lowest(ham)
        if pairs.e1 - pairs.e0 > 1e-6:
            assert abs(np.vdot(pairs.psi0, pairs.psi1)) <= 1e-8

    def test_relabeling_invariance(self):
        def permute_mask(mask: int, perm: list[int]) -> int:
            out = 0
            for i, p in enumerate(perm):
                if (mask >> i) & 1:
                    out |= 1 << p
            return out

        rng = np.random.default_rng(31)
        for _ in range(5):
            n = 5
            h = random_hamiltonian(n, 12, rng)
            perm = list(rng.permutation(n))
            relabeled = PauliHamiltonian(
                n,
                [
                    PauliTerm(
                        permute_mask(t.x_mask, perm),
                        permute_mask(t.z_mask, perm),
                        t.coefficient,
                    )
                    for t in h.terms
                ],
            )
            a = scipy.linalg.eigvalsh(dense_matrix(h))
            b = scipy.linalg.eigvalsh(dense_matrix(relabeled))
            assert np.allclose(a, b, atol=1e-10)

    def test_phase_fix_pivot_real_positive(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=6, seed=2))
        pairs = exact_lowest(ham)
        for col in range(2):
            vec = pairs.vectors[:, col]
            pivot = vec[int(np.argmax(np.abs(vec)))]
            assert pivot.real > 0
            assert np.isclose(np.imag(pivot), 0.0, atol=1e-12)

    @pytest.mark.parametrize("imag, real",
                             [(5e-13, True), (2e-12, False), (np.nan, False)])
    def test_phase_fix_casts_to_real_within_1e_12(self, imag, real):
        # The pivot, 1.0, is real already, so the rotation keeps every entry.
        with np.errstate(invalid="ignore"):  # a NaN pivot divides NaN by NaN
            fixed = oracle_mod.fix_phase(np.array([1.0, 0.1 + imag * 1j]))
        assert np.isrealobj(fixed) == real
        if real:
            assert fixed.tolist() == [1.0, 0.1]

    def test_residual_bound_enforced(self, monkeypatch):
        # With no rounding floor the bound is RESIDUAL_TOL itself, below
        # what rounding leaves (eps r > 1e-18).
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=6, seed=3))
        monkeypatch.setattr(oracle_mod, "RESIDUAL_TOL", 1e-18)
        monkeypatch.setattr(oracle_mod, "ROUNDING_FACTOR", 0)
        with pytest.raises(ConvergenceError, match="residual"):
            exact_lowest(ham)

    # TFIM mixes the sectors, so its pairs come from one block's solve;
    # Heisenberg's are merged from its sectors' solves, and the merged
    # pair at the same rank is perturbed.  The restricted solve's one pair
    # is perturbed too.  At every scale the energy moves by 1e-6 times the
    # scale, above the bound, which is the rounding floor from x1e5 on.
    @pytest.mark.parametrize("wrong", [0, 1, 3])
    def test_residual_check_covers_every_pair(self, wrong):
        for scale in _SCALES:
            shift = 1e-6 * scale
            for kind, name in (("tfim", "hermitian_lowest"),
                               ("heisenberg", "_lowest_over_blocks")):
                ham = _scaled(build_model(ModelSpec(kind=kind, n=6, seed=3))[0], scale)
                _assert_caught(oracle_mod, name, wrong, shift, lambda: exact_lowest(ham, count=4))
                matrix = build_restricted(ham, Subspace(range(64)))
                _assert_caught(subspace_mod, "hermitian_lowest", 0, shift,
                               lambda: lowest_eigenpair(matrix))

    def test_count_validation(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=4, seed=0))
        with pytest.raises(ValueError, match="count"):
            exact_lowest(ham, count=1)
        with pytest.raises(ValueError, match="count"):
            exact_lowest(ham, count=9)

    # Up to n = 7 every block has at most DENSE_SOLVE_MAX states, and a
    # block's toarray() gives LAPACK the bits of dense_matrix(ham).  TFIM and
    # the complex H mix the sectors, so their one block is the whole
    # matrix.  Heisenberg conserves popcount: the energies from each
    # sector are the lowest of that sector's dense block, as LAPACK gives
    # them at one of the depths the solver may ask for, which moves their
    # last bits.
    @pytest.mark.parametrize("count", [2, 8])
    @pytest.mark.parametrize("kind", ["heisenberg", "tfim", "complex"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_small_n_matches_dense_reference_bit_for_bit(self, n, kind, count):
        if kind == "complex":
            ham = random_hamiltonian(n, 4 * n, np.random.default_rng(n))
            assert not ham.is_real
        else:
            ham, _ = build_model(ModelSpec(kind=kind, n=n, seed=n))
        count = min(count, 1 << n)
        pairs = exact_lowest(ham, count)
        dense = dense_matrix(ham)
        if kind != "heisenberg":
            assert popcount_sectors(ham) is None
            vals, _ = hermitian_lowest(dense, count)
            assert np.array(pairs.energies).tobytes() == vals.tobytes()
            return
        weights = np.bitwise_count(np.arange(1 << n))
        by_sector = {}
        for e, vec in zip(pairs.energies, pairs.vectors.T):
            (w,) = set(weights[vec != 0].tolist())
            by_sector.setdefault(w, []).append(e)
        for w, got in by_sector.items():
            states = np.flatnonzero(weights == w)
            block = dense[np.ix_(states, states)]
            prefixes = [hermitian_lowest(block, depth)[0][:len(got)].tobytes()
                        for depth in range(len(got), min(count, len(states)) + 1)]
            assert np.array(got).tobytes() in prefixes

    def test_higher_count_sorted(self):
        ham, _ = build_model(ModelSpec(kind="tfim", n=5, seed=7))
        pairs = exact_lowest(ham, count=4)
        assert list(pairs.energies) == sorted(pairs.energies)
        dense_vals = scipy.linalg.eigvalsh(dense_matrix(ham))[:4]
        assert np.allclose(pairs.energies, dense_vals, atol=1e-10)


# Every coefficient times 1, 1e2, 1e5 and 1e8: the largest absolute row
# sum r passes 7.0e4, where residual_bound turns from RESIDUAL_TOL to the
# rounding floor 64 eps r, between 1e2 and 1e5.
_SCALES = (1.0, 1e2, 1e5, 1e8)


class TestResidualBound:
    """One residual rule, residual_bound(r), for the oracle and the loop."""

    @pytest.mark.parametrize("scale", _SCALES)
    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("kind", ["heisenberg", "tfim"])
    def test_scaled_model_passes_the_oracle(self, kind, n, scale):
        ham, _ = build_model(ModelSpec(kind=kind, n=n, seed=0))
        pairs = exact_lowest(_scaled(ham, scale))
        assert pairs.e0 == pytest.approx(scale * _lowest_energy(kind, n), rel=1e-12)

    # B/T = 100/8 grows each subspace past DENSE_SOLVE_MAX but Heisenberg
    # n = 8's, which stops at 140 states, so those runs solve on both
    # routes; every scale picks the same states.
    @pytest.mark.parametrize("scale", _SCALES[1:])
    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("kind", ["heisenberg", "tfim"])
    def test_scaled_model_passes_an_as_en_run(self, monkeypatch, kind, n, scale):
        ham, _ = build_model(ModelSpec(kind=kind, n=n, seed=0))
        pairs = exact_lowest(ham)
        counts = sample_counts(contaminated_distribution(pairs.psi0, pairs.psi1, 0.2), 1000, 0)
        config = RunConfig(B=100, T=8)
        unscaled = run_as_sqd(ham, counts, config)
        routes = set()
        solve = subspace_mod.hermitian_lowest

        def spy(matrix, count, guess=None):
            routes.add(scipy.sparse.issparse(matrix))
            return solve(matrix, count, guess)

        monkeypatch.setattr(subspace_mod, "hermitian_lowest", spy)
        trace = run_as_sqd(_scaled(ham, scale), counts, config)
        assert np.array_equal(trace.final_subspace.states, unscaled.final_subspace.states)
        assert trace.final_energy == pytest.approx(scale * unscaled.final_energy, rel=1e-12)
        assert routes == ({False} if (kind, n) == ("heisenberg", 8) else {False, True})

    # Both radii stay below 7.0e4 on every workload instance, so the bound
    # is RESIDUAL_TOL there and no bit moves.  The oracle's r is H's summed
    # |coefficient|.  A restricted table's row is a state's diagonal and
    # amplitude_table entries, so the largest absolute row sum over all 2^n
    # states bounds every restricted table's r, and the summed
    # |coefficient| bounds that.
    @pytest.mark.parametrize("n", [10, 12, 14, 16])
    @pytest.mark.parametrize("kind", ["heisenberg", "tfim"])
    def test_bound_is_residual_tol_on_every_workload_instance(self, kind, n):
        states = np.arange(1 << n, dtype=np.int64)
        for seed in range(6):
            ham, _ = build_model(ModelSpec(kind=kind, n=n, seed=seed))
            summed = sum(abs(term.coefficient) for term in ham.terms)
            amplitudes = np.abs(ham.amplitude_table(states)).sum(axis=0)
            rows = float(np.max(np.abs(ham.diagonal(states)) + amplitudes))
            assert rows <= summed
            assert oracle_mod.residual_bound(summed) == RESIDUAL_TOL
            assert oracle_mod.residual_bound(rows) == RESIDUAL_TOL

    # The loop's bound once scaled with |E|: 1e-9 |E| let this 5e-9
    # residual through at E ~ -10.
    def test_restricted_solve_takes_the_oracle_bound(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=6, seed=3))
        matrix = build_restricted(ham, Subspace(range(64)))
        assert lowest_eigenpair(matrix).energy < -5.0
        _assert_caught(subspace_mod, "hermitian_lowest", 0, 5e-9, lambda: lowest_eigenpair(matrix))

    # ARPACK's tol is a tenth of the bound over r: RESIDUAL_TOL / (10 r)
    # below the crossover, and 6.4 eps past it, where RESIDUAL_TOL / (10 r)
    # would fall below eps from r ~ 4.5e5 on.
    @pytest.mark.parametrize("scale", _SCALES)
    def test_arpack_tol_follows_the_bound(self, monkeypatch, scale):
        handed = []
        solver = scipy.sparse.linalg.eigsh

        def spy(operator, *args, **kwargs):
            handed.append(kwargs["tol"])
            return solver(operator, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
        ham, _ = build_model(ModelSpec(kind="tfim", n=8, seed=0))
        matrix = _full_csr(_scaled(ham, scale))
        radius = float(np.max(oracle_mod._magnitude(matrix) @ np.ones(256)))
        hermitian_lowest(matrix, 2)
        eps = np.finfo(np.float64).eps
        expected = RESIDUAL_TOL / (10 * radius) if scale < 1e5 else 6.4 * eps
        assert handed == [pytest.approx(expected, rel=1e-12, abs=0.0)]

    # NaN compares false with every bound, so the check must be written as
    # "not residual <= bound" to refuse it; both callers go through it.
    @pytest.mark.parametrize("entry", ["vector", "energy"])
    @pytest.mark.parametrize("module", [oracle_mod, subspace_mod], ids=["oracle", "restricted"])
    def test_nan_pair_fails_both_callers(self, monkeypatch, module, entry):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=8, seed=0))
        solve = module.hermitian_lowest

        def nan_pair(*args):
            vals, vecs = solve(*args)
            if entry == "vector":
                vecs[:, 0] = np.nan
            else:
                vals[0] = np.nan
            return vals, vecs

        monkeypatch.setattr(module, "hermitian_lowest", nan_pair)
        if module is oracle_mod:
            call = functools.partial(exact_lowest, ham)
        else:
            call = functools.partial(lowest_eigenpair, build_restricted(ham, Subspace(range(20))))
        with pytest.raises(ConvergenceError, match="residual") as caught:
            call()
        assert np.isnan(caught.value.achieved_residual)

    def test_bound_is_the_rounding_floor_past_the_crossover(self):
        floor = oracle_mod.ROUNDING_FACTOR * np.finfo(np.float64).eps
        assert oracle_mod.residual_bound(7.0e4) == RESIDUAL_TOL
        assert oracle_mod.residual_bound(7.1e4) == floor * 7.1e4
        assert oracle_mod.residual_bound(1e200) == floor * 1e200


class TestDegenerateLevels:
    # Clean rings are translation invariant, so their levels come in
    # copies: Heisenberg n = 8 holds -12.5137 three times, and TFIM at
    # h = J has fourfold levels among its lowest eight.  Lanczos from one
    # start vector sees only that vector's projection on each eigenspace,
    # so it can return eigenpairs that pass every residual check and still
    # miss a copy of a level; hermitian_lowest re-solves on the deflated
    # matrix while two of its energies tie.
    @pytest.mark.parametrize("method", [None, "lanczos"])
    @pytest.mark.parametrize("count", [2, 4, 8])
    @pytest.mark.parametrize("n", [8, 10, 12])
    @pytest.mark.parametrize("kind", ["heisenberg", "tfim"])
    def test_clean_ring_gives_the_lowest_levels(self, kind, n, count, method):
        pairs = exact_lowest(_clean_ring(kind, n), count=count, method=method)
        expected = _clean_ring_spectrum(kind, n)[:count]
        assert np.max(np.abs(np.array(pairs.energies) - expected)) <= 1e-9

    def test_missing_copy_found_on_the_deflated_matrix(self):
        matrix = _full_csr(_clean_ring("heisenberg", 8))
        vals, vecs = hermitian_lowest(matrix, 4)
        expected = _clean_ring_spectrum("heisenberg", 8)[:4]
        assert np.max(np.abs(vals - expected)) <= 1e-9
        assert np.linalg.norm(matrix @ vecs - vecs * vals, axis=0).max() <= RESIDUAL_TOL
        # The three copies of -12.5137 span three dimensions.
        assert np.linalg.matrix_rank(vecs[:, 1:], tol=1e-6) == 3

    # The complex driver returns copies of one level that are not
    # orthogonal (|V^H V - I| up to 1.5e-2 at n = 10, count 8, on the one
    # block), so psi0 and psi1 of a degenerate ground space would not be
    # an orthonormal pair.
    @pytest.mark.parametrize("method", [None, "lanczos"])
    @pytest.mark.parametrize("count", [4, 8])
    @pytest.mark.parametrize("n", [8, 10])
    def test_complex_clean_ring_vectors_are_orthonormal(self, n, count, method):
        vecs = exact_lowest(_dm_ring(n), count=count, method=method).vectors
        assert np.abs(vecs.conj().T @ vecs - np.eye(count)).max() <= 1e-10

    # A level of which the first solve returns one copy shows no tie, so
    # nothing re-checks it: on the one block the complex ring's 4th energy
    # is -11.7685 at n = 8 where eigvalsh has -12.5152 (-16.2026 against
    # -16.3731 at n = 10).  The sector route finds it.
    @pytest.mark.parametrize("method", [None, pytest.param("lanczos", marks=pytest.mark.xfail(
        strict=True, reason="CHANGES.md FOUND line on hermitian_lowest: a copy is "
        "missed when the first solve shows no tie"))])
    @pytest.mark.parametrize("n", [8, 10])
    def test_complex_clean_ring_gives_the_lowest_levels(self, n, method):
        ham = _dm_ring(n)
        pairs = exact_lowest(ham, count=4, method=method)
        expected = scipy.linalg.eigvalsh(dense_matrix(ham))[:4]
        assert np.max(np.abs(np.array(pairs.energies) - expected)) <= 1e-9

    # The re-check hands ARPACK scipy's sum of _Product and the scaled
    # product of Q and Q^H, which must give the deflated product written
    # out, x -> M x + 2 r Q (Q^H x), to the bit.
    @pytest.mark.parametrize("case", ["heisenberg sector", "complex one block"])
    def test_deflated_operator_is_the_written_out_product(self, monkeypatch, case):
        if case == "heisenberg sector":
            (_, matrix), count = _sector_blocks(_clean_ring("heisenberg", 10))[4], 4
        else:
            matrix, count = _full_csr(_dm_ring(8)), 8
        solves = []
        for name in ("eigsh", "eigs"):
            solver = getattr(scipy.sparse.linalg, name)

            def spy(operator, *args, solver=solver, **kwargs):
                vals, vecs = solver(operator, *args, **kwargs)
                solves.append((operator, kwargs["k"], vals, vecs))
                return vals, vecs

            monkeypatch.setattr(scipy.sparse.linalg, name, spy)
        hermitian_lowest(matrix, count)
        (_, _, vals, vecs), (deflated, k, _, _) = solves[:2]
        assert k == 1
        dim = matrix.shape[0]
        basis = np.linalg.qr(vecs[:, np.argsort(vals.real)])[0]
        radius = float(np.max(oracle_mod._magnitude(matrix) @ np.ones(dim)))
        rng = np.random.default_rng(1)
        x = rng.standard_normal(dim)
        if np.iscomplexobj(matrix):
            x = x + 1j * rng.standard_normal(dim)
        expected = matrix @ x + 2.0 * radius * (basis @ (basis.conj().T @ x))
        assert deflated.matvec(x).tobytes() == expected.tobytes()


def _full_gather(ham: PauliHamiltonian, v: np.ndarray) -> np.ndarray:
    """H @ v as apply_hamiltonian formed it before: a gather over all 2^n states."""
    dim = 1 << ham.n
    columns = np.ascontiguousarray(v.reshape(dim, -1).T)
    groups: dict[int, list[PauliTerm]] = {}
    for term in ham.terms:
        groups.setdefault(term.x_mask, []).append(term)
    out = np.zeros(columns.shape, dtype=np.result_type(v.dtype, ham.dtype, np.float64))
    idx = np.arange(dim, dtype=np.int64)
    for x in sorted(groups):
        src = idx ^ x
        amp = np.zeros(dim, dtype=ham.dtype)
        for term in groups[x]:
            w = term.weight.real if ham.is_real else term.weight
            amp += np.where(np.bitwise_count(src & term.z_mask) & 1, -w, w)
        for column, vec in zip(out, columns):
            column += amp * vec[src]
    return out.T.reshape(v.shape)


def _same_bytes_as_eigsh(matrix, count, guess=None) -> bool:
    """hermitian_lowest against eigsh handed the CSR matrix itself.

    The start vector is the seeded one, or with a guess
    guess/|guess| + WARM_MIX r/|r| for that seeded r, and the Krylov
    basis holds min(dim, max(2 count + 4, 10)) vectors.
    """
    dim = matrix.shape[0]
    radius = float(np.max(oracle_mod._magnitude(matrix) @ np.ones(dim)))
    v0 = np.random.default_rng(0).standard_normal(dim)
    if guess is not None:
        noise = oracle_mod.WARM_MIX * (v0 / np.linalg.norm(v0))
        v0 = guess / np.linalg.norm(guess) + noise
    vals, vecs = scipy.sparse.linalg.eigsh(
        matrix, k=count, which="SA", v0=v0, ncv=min(dim, max(2 * count + 4, 10)),
        maxiter=oracle_mod.LANCZOS_MAXITER,
        tol=oracle_mod.residual_bound(radius) / (oracle_mod.ARPACK_TOL_DIVISOR * radius),
    )
    order = np.argsort(vals)
    got_vals, got_vecs = hermitian_lowest(matrix, count, guess)
    return (got_vals.tobytes() == vals[order].tobytes()
            and got_vecs.tobytes() == vecs[:, order].tobytes())


def _dense_reference(ham: PauliHamiltonian, count: int = 2) -> EigenpairSet:
    """The reference pairs: LAPACK on the dense matrix."""
    vals, vecs = hermitian_lowest(dense_matrix(ham), count)
    return EigenpairSet(energies=tuple(vals), vectors=vecs)


def _with_dm_bond(ham: PauliHamiltonian, strength: float = 0.3) -> PauliHamiltonian:
    """ham plus a Dzyaloshinskii-Moriya bond D(XY - YX) on qubits 0 and 1.

    Each term has one Y, so the sum is complex; it conserves popcount.
    """
    dm = [PauliTerm(0b11, 0b10, strength), PauliTerm(0b11, 0b01, -strength)]
    return PauliHamiltonian(ham.n, list(ham.terms) + dm)


def _dm_ring(n: int, strength: float = 0.3) -> PauliHamiltonian:
    """The clean Heisenberg ring plus D(X_i Y_j - Y_i X_j) on every bond.

    Complex and translation invariant, so its levels come in copies.
    """
    terms = list(_clean_ring("heisenberg", n).terms)
    for i in range(n):
        bond, j = (1 << i) | (1 << (i + 1) % n), 1 << (i + 1) % n
        terms += [PauliTerm(bond, j, strength), PauliTerm(bond, 1 << i, -strength)]
    return PauliHamiltonian(n, terms)


def _clean_ring(kind: str, n: int) -> PauliHamiltonian:
    """The ring with no disorder: Heisenberg with J = 1, TFIM with J = h = 1."""
    fields = DisorderInstance((0.0,) * n, 0)
    return heisenberg_chain(n, 1.0, fields) if kind == "heisenberg" else tfim_chain(
        n, 1.0, 1.0, fields)


@functools.cache
def _clean_ring_spectrum(kind: str, n: int) -> np.ndarray:
    """Every eigenvalue of the clean ring, ascending, by dense eigvalsh on blocks.

    Heisenberg conserves popcount.  TFIM's ZZ and X terms carry no Y, so
    conjugating every qubit by a Hadamard swaps each term's x and z masks;
    the result, XX bonds and a Z field, conserves popcount parity and has
    the same spectrum.
    """
    ham = _clean_ring(kind, n)
    if kind == "tfim":
        ham = PauliHamiltonian(n, [PauliTerm(t.z_mask, t.x_mask, t.coefficient)
                                   for t in ham.terms])
    weights = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
    return _block_spectrum(ham, weights % 2 if kind == "tfim" else weights)


def _block_spectrum(ham: PauliHamiltonian, keys: np.ndarray) -> np.ndarray:
    """Every eigenvalue of a real H that keeps each set of states of one key.

    keys[s] is state s's key.  Each block's dense matrix is built term by
    term, as dense_matrix builds the whole one; the terms of one x mask
    are summed first, so XX + YY cancels on aligned bits before the
    entries that would leave the block are dropped.  Ascending, by dense
    eigvalsh on each block.
    """
    n = ham.n
    states = np.arange(1 << n, dtype=np.int64)
    values = []
    for key in np.unique(keys):
        block = states[keys == key]
        row = np.full(1 << n, -1)
        row[block] = np.arange(len(block))
        out = np.zeros((len(block), len(block)))
        for x in {term.x_mask for term in ham.terms}:
            amp = sum(term.weight.real * (1.0 - 2.0 * (np.bitwise_count(block & term.z_mask) & 1))
                      for term in ham.terms if term.x_mask == x)
            targets = row[block ^ x]
            inside = targets >= 0
            assert not np.any(amp[~inside])
            out[targets[inside], np.flatnonzero(inside)] += amp[inside]
        values.append(scipy.linalg.eigvalsh(out))
    return np.sort(np.concatenate(values))


def _with_popcount(n: int, ones: int) -> tuple[int, ...]:
    """The n-bit states with the given number of ones, ascending."""
    return tuple(s for s in range(1 << n) if s.bit_count() == ones)


def _scaled(ham: PauliHamiltonian, factor: float) -> PauliHamiltonian:
    """ham with every coefficient multiplied by factor."""
    terms = [PauliTerm(t.x_mask, t.z_mask, t.coefficient * factor) for t in ham.terms]
    return PauliHamiltonian(ham.n, terms)


def _assert_caught(module, name: str, at: int, shift: float, call) -> None:
    """call() fails the residual check once module.name's energy ``at`` moves up by shift."""
    solve = getattr(module, name)

    def off(*args):
        vals, vecs = solve(*args)
        vals[at] += shift
        return vals, vecs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, off)
        with pytest.raises(ConvergenceError, match="residual") as caught:
            call()
    assert caught.value.achieved_residual == pytest.approx(shift, rel=1e-3)


@functools.cache
def _lowest_energy(kind: str, n: int) -> float:
    """E0 of the seed-0 model, from matrices built term by term.

    Heisenberg's popcount blocks, at most C(12, 6) = 924 states, and
    TFIM's 256 states at n = 8 go to dense eigvalsh.  TFIM mixes all
    4096 states at n = 12, where eigvalsh takes ~6 s, so ARPACK solves
    that matrix to machine precision (tol=0).
    """
    ham, _ = build_model(ModelSpec(kind=kind, n=n, seed=0))
    states = np.arange(1 << n, dtype=np.int64)
    if kind == "heisenberg":
        return float(_block_spectrum(ham, np.bitwise_count(states))[0])
    if n <= 8:
        return float(scipy.linalg.eigvalsh(dense_matrix(ham))[0])
    matrix = sum(
        scipy.sparse.csr_array(
            (term.weight.real * (1.0 - 2.0 * (np.bitwise_count(states & term.z_mask) & 1)),
             (states ^ term.x_mask, states)), shape=(1 << n, 1 << n))
        for term in ham.terms)
    return float(scipy.sparse.linalg.eigsh(matrix, k=1, which="SA", tol=0)[0][0])


def _full_csr(ham: PauliHamiltonian):
    """H as one CSR matrix over all 2^n states: the one-block route's block."""
    return oracle_mod._csr_block(ham, np.arange(1 << ham.n, dtype=np.int64))


def _refuse_full_csr(monkeypatch):
    """Make any build of a block over all 2^n states fail."""
    build = oracle_mod._csr_block

    def refuse(ham, states):
        if len(states) == 1 << ham.n:
            raise AssertionError("full CSR route taken")
        return build(ham, states)

    monkeypatch.setattr(oracle_mod, "_csr_block", refuse)


def _no_floor(block, steps, cut):
    return -np.inf


def _below_any_cut(floors: list[float]) -> list[float]:
    """Floors in the order of ``floors``, ties by block, each below any cut.

    The block of rank k in that order gets -1e300 (blocks - k), so the
    solver takes the blocks in the same order, from the same first block,
    and skips none by its Gershgorin floor.
    """
    order = sorted(range(len(floors)), key=floors.__getitem__)
    low = [0.0] * len(floors)
    for rank, w in enumerate(order):
        low[w] = -1e300 * (len(floors) - rank)
    return low


def _no_pass_one_floor(monkeypatch):
    """Hand the solver every sector with a floor below any cut, in floor order."""
    split = oracle_mod.popcount_sectors

    def without_floors(ham):
        sectors, floors = split(ham)
        return sectors, _below_any_cut(floors)

    monkeypatch.setattr(oracle_mod, "popcount_sectors", without_floors)


def _sector_blocks(ham: PauliHamiltonian) -> list:
    """(states, block) of every popcount sector, each built by _csr_block."""
    sectors, _ = popcount_sectors(ham)
    return [(states, oracle_mod._csr_block(ham, states)) for states in sectors]


def _sector_instance(kind: str, n: int, seed: int) -> PauliHamiltonian:
    if kind == "zero-field ring":
        return heisenberg_chain(n, 1.0, DisorderInstance((0.0,) * n, 0))
    ham, _ = build_model(ModelSpec(kind="heisenberg" if kind == "dm" else kind, n=n, seed=seed))
    return _with_dm_bond(ham) if kind == "dm" else ham


def _assert_every_sector_gives_the_same_bits(ham: PauliHamiltonian, counts) -> None:
    """The sector solve equals, to the bit, solving every sector in floor order.

    With floors in the same order but below any cut, and no weighted
    floor, no block is skipped, and the first block is the same.
    """
    sectors, floors = popcount_sectors(ham)
    for count in counts:
        vals, vecs = oracle_mod._lowest_over_blocks(ham, sectors, floors, count)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle_mod, "_weighted_floor", _no_floor)
            every_vals, every_vecs = oracle_mod._lowest_over_blocks(
                ham, sectors, _below_any_cut(floors), count
            )
        assert vals.tobytes() == every_vals.tobytes()
        assert vecs.tobytes() == every_vecs.tobytes()


def _assert_same_pairs(a, b, overlap_tol=1e-8):
    assert np.allclose(a.energies, b.energies, rtol=0.0, atol=1e-10)
    for col in range(len(a.energies)):
        overlap = abs(np.vdot(a.vectors[:, col], b.vectors[:, col]))
        assert overlap >= 1.0 - overlap_tol


class TestPopcountSectors:
    def test_blocks_are_the_dense_matrix_on_each_sector(self):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=8, seed=4))
        for h in (ham, _with_dm_bond(ham)):
            blocks = _sector_blocks(h)
            dense = dense_matrix(h)
            weights = np.bitwise_count(np.arange(1 << h.n))
            assert len(blocks) == h.n + 1
            for w, (states, block) in enumerate(blocks):
                assert np.array_equal(states, np.flatnonzero(weights == w))
                assert np.array_equal(block.toarray(), dense[np.ix_(states, states)])


class TestSectorRoute:
    """The default route solves a popcount-conserving H block by block."""

    @pytest.mark.parametrize("count", [2, 8])
    def test_matches_eigvalsh_and_dense_route_at_n10(self, monkeypatch, count):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=10, seed=0))
        dense = _dense_reference(ham, count)
        _refuse_full_csr(monkeypatch)
        pairs = exact_lowest(ham, count=count)
        expected = scipy.linalg.eigvalsh(dense_matrix(ham))[:count]
        assert np.allclose(pairs.energies, expected, rtol=0.0, atol=1e-10)
        _assert_same_pairs(pairs, dense)

    @pytest.mark.parametrize("count", [2, 8])
    def test_matches_full_csr_route_at_n12(self, monkeypatch, count):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=12, seed=1))
        full = exact_lowest(ham, count=count, method="lanczos")
        _refuse_full_csr(monkeypatch)
        _assert_same_pairs(exact_lowest(ham, count=count), full)

    def test_complex_conserving_hamiltonian(self, monkeypatch):
        base, _ = build_model(ModelSpec(kind="heisenberg", n=10, seed=2))
        ham = _with_dm_bond(base)
        assert not ham.is_real
        dense = _dense_reference(ham)
        _refuse_full_csr(monkeypatch)
        pairs = exact_lowest(ham)
        assert pairs.vectors.dtype == np.complex128
        _assert_same_pairs(pairs, dense)

    @pytest.mark.parametrize("kind", ["tfim", "heisenberg+x"])
    def test_mixing_hamiltonian_takes_the_full_route(self, kind):
        build = oracle_mod._csr_block
        built = []

        def record(h, states):
            built.append(states.tolist())
            return build(h, states)

        for n in (2, 8, 11, 13, 14):
            ham, _ = build_model(ModelSpec(kind=kind.split("+")[0], n=n, seed=0))
            if kind.endswith("+x"):
                ham = PauliHamiltonian(n, list(ham.terms) + [PauliTerm(1 << 1, 0, 0.2)])
            assert popcount_sectors(ham) is None
            full = exact_lowest(ham, method="lanczos")
            built.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle_mod, "_csr_block", record)
                pairs = exact_lowest(ham)
            assert built == [list(range(1 << n))]
            assert pairs.energies == full.energies
            assert np.array_equal(pairs.vectors, full.vectors)

    def test_degenerate_ground_across_and_within_sectors(self, monkeypatch):
        # The zero-field ring at odd n has a fourfold ground space: two
        # states of popcount (n - 1) / 2 and two of popcount (n + 1) / 2.
        n = 11
        ham = heisenberg_chain(n, 1.0, DisorderInstance((0.0,) * n, 0))
        _refuse_full_csr(monkeypatch)
        weights = np.bitwise_count(np.arange(1 << n))
        pairs = exact_lowest(ham, count=4)
        assert pairs.degenerate_ground
        assert pairs.energies[3] - pairs.energies[0] < DEGENERACY_GAP
        sectors = []
        for e, vec in zip(pairs.energies, pairs.vectors.T):
            assert np.linalg.norm(apply_hamiltonian(ham, vec) - e * vec) <= RESIDUAL_TOL
            (sector,) = set(weights[np.abs(vec) > 0].tolist())
            sectors.append(sector)
        assert sorted(sectors) == [(n - 1) // 2] * 2 + [(n + 1) // 2] * 2
        gram = pairs.vectors.conj().T @ pairs.vectors
        assert np.allclose(gram, np.eye(4), rtol=0.0, atol=1e-10)
        again = exact_lowest(ham, count=4)
        assert again.energies == pairs.energies
        assert np.array_equal(again.vectors, pairs.vectors)

    def test_exact_tie_between_sectors_broken_by_sector(self, monkeypatch):
        # A ferromagnetic Z ring: |0...0> (sector 0) and |1...1> (sector n)
        # both have energy -n, to the bit.
        n = 9
        ham = tfim_chain(n, 1.0, 0.0, DisorderInstance((0.0,) * n, 0))
        _refuse_full_csr(monkeypatch)
        pairs = exact_lowest(ham)
        assert pairs.energies == (-float(n), -float(n))
        assert pairs.psi0.tolist() == np.eye(1 << n)[0].tolist()
        assert pairs.psi1.tolist() == np.eye(1 << n)[-1].tolist()

    def test_non_convergence_raises(self, monkeypatch):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=12, seed=0))
        monkeypatch.setattr(oracle_mod, "LANCZOS_MAXITER", 1)
        _refuse_full_csr(monkeypatch)
        with pytest.raises(ConvergenceError, match="restarts"):
            exact_lowest(ham)

    @pytest.mark.parametrize("count", [2, 8])
    @pytest.mark.parametrize("n", [12, 14])
    def test_skip_is_bit_identical_to_solving_every_sector(self, monkeypatch, n, count):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=n, seed=0))
        _refuse_full_csr(monkeypatch)
        pairs = exact_lowest(ham, count=count)
        monkeypatch.setattr(oracle_mod, "_weighted_floor", _no_floor)
        _no_pass_one_floor(monkeypatch)
        every = exact_lowest(ham, count=count)
        assert pairs.energies == every.energies
        assert np.array_equal(pairs.vectors, every.vectors)

    @pytest.mark.parametrize(
        "kind,n,seed,counts",
        [
            ("dm", 14, 0, (2, 8)),
            ("heisenberg", 15, 0, (2, 8)),
            ("heisenberg", 16, 0, (2,)),
            ("zero-field ring", 11, 0, (2, 4)),
        ],
    )
    def test_floor_skips_move_no_bit(self, kind, n, seed, counts):
        # Heisenberg n = 15 seed 0's lowest-floor sector does not hold the
        # ground pair; the odd zero-field ring ties E0 across two sectors.
        _assert_every_sector_gives_the_same_bits(_sector_instance(kind, n, seed), counts)

    @pytest.mark.skipif(
        not os.environ.get("ASSQD_ACCEPT_N16"),
        reason="the n = 14-16 seed grid is opt-in (set ASSQD_ACCEPT_N16=1; ~25 s)",
    )
    def test_floor_skips_move_no_bit_on_the_seed_grid(self):
        for kind, n in [("heisenberg", 14), ("heisenberg", 15), ("heisenberg", 16), ("dm", 14)]:
            for seed in range(6):
                _assert_every_sector_gives_the_same_bits(
                    _sector_instance(kind, n, seed), (2, 8)
                )

    @pytest.mark.parametrize("n,count", [(9, 2), (9, 8), (15, 2), (15, 8)])
    def test_lowest_floor_sector_is_built_and_solved_once(self, monkeypatch, n, count):
        # At these odd n the lowest-floor sector does not hold the ground
        # pair.  Only the deepening builds a sector again, once at most.
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=n, seed=0))
        _, floors = popcount_sectors(ham)
        lead = min(range(n + 1), key=floors.__getitem__)
        built, solved = [], []
        build = oracle_mod._csr_block

        def record_block(h, states):
            built.append(int(np.bitwise_count(states[0])))
            return build(h, states)

        def record_solve(matrix, depth):
            solved.append(built[-1])
            return hermitian_lowest(matrix, depth)

        monkeypatch.setattr(oracle_mod, "_csr_block", record_block)
        monkeypatch.setattr(oracle_mod, "hermitian_lowest", record_solve)
        pairs = exact_lowest(ham, count=count)
        assert built.count(lead) == solved.count(lead) == 1
        assert max(built.count(w) for w in built) <= 2
        monkeypatch.undo()
        full = exact_lowest(ham, count=count, method="lanczos")
        assert np.allclose(pairs.energies, full.energies, rtol=0.0, atol=1e-10)

    def test_fewer_solves_than_sectors(self, monkeypatch):
        n = 14
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=n, seed=0))
        solves = []

        def record(matrix, count):
            solves.append(count)
            return hermitian_lowest(matrix, count)

        monkeypatch.setattr(oracle_mod, "hermitian_lowest", record)
        exact_lowest(ham)
        # The ground sector at depth 2, then the two sectors whose weighted
        # floors do not clear the cut; the other 12 are skipped.
        assert solves == [2, 1, 1]

    @pytest.mark.parametrize("count", [2, 8])
    def test_one_sector_block_alive_at_each_solve(self, monkeypatch, count):
        # Every CSR matrix the route makes is built by _csr_block; at each
        # solve only the block being solved may still be alive.
        n = 14
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=n, seed=0))
        made, alive = [], []

        def record_block(*args):
            block = build(*args)
            made.append(weakref.ref(block))
            return block

        def record_solve(matrix, depth):
            alive.append(sum(ref() is not None for ref in made))
            return hermitian_lowest(matrix, depth)

        build = oracle_mod._csr_block
        monkeypatch.setattr(oracle_mod, "_csr_block", record_block)
        monkeypatch.setattr(oracle_mod, "hermitian_lowest", record_solve)
        exact_lowest(ham, count=count)
        assert len(made) >= 3
        assert alive and alive == [1] * len(alive)
        assert all(ref() is None for ref in made)

    def test_solve_leaves_block_indices_in_place(self, monkeypatch):
        # Sorting a matrix's indices (as abs(matrix) and its axis sums do)
        # reorders the sums in its products and moves the eigenpairs' last
        # bits.  The floors read |data| of every block, and ARPACK's
        # tolerance that of every sparse matrix, the one CSR matrix too.
        n = 12
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=n, seed=0))
        copies = []

        def record(*args):
            matrix = build(*args)
            copies.append((matrix, matrix.indices.copy()))
            return matrix

        build = oracle_mod._csr_block
        monkeypatch.setattr(oracle_mod, "_csr_block", record)
        exact_lowest(ham, count=8)
        sector_blocks = len(copies)
        exact_lowest(ham, count=8, method="lanczos")
        # The lead block, one block per floor test or solve after it, and
        # then the one CSR matrix.
        assert sector_blocks >= 3
        assert len(copies) == sector_blocks + 1
        assert not all(block.has_sorted_indices for block, _ in copies[:-1])
        assert not copies[-1][0].has_sorted_indices
        for matrix, indices in copies:
            assert np.array_equal(matrix.indices, indices)

    @pytest.mark.parametrize("kind", ["real", "complex", "zero-field ring"])
    def test_floor_bounds_each_block_from_below(self, kind):
        n = 10
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=n, seed=3))
        if kind == "complex":
            ham = _with_dm_bond(ham)
        elif kind == "zero-field ring":
            # At n = 8 rows with four domain walls have a zero diagonal, so
            # their first stored entry is off the diagonal; the lowest
            # eigenvalue of sectors 1 and n - 1 meets the floor, up to
            # rounding.
            n = 8
            ham = heisenberg_chain(n, 1.0, DisorderInstance((0.0,) * n, 0))
        _, floors = popcount_sectors(ham)
        for (_, block), pass_one in zip(_sector_blocks(ham), floors):
            dense = block.toarray()
            lowest = scipy.linalg.eigvalsh(dense)[0]
            diagonal = np.diag(dense)
            radius = np.abs(dense).sum(axis=1) - np.abs(diagonal)
            floor = oracle_mod._weighted_floor(block, 0, np.inf)
            assert floor == pytest.approx(np.min(diagonal.real - radius), abs=1e-12)
            assert pass_one == floor
            weighted = oracle_mod._weighted_floor(block, oracle_mod.FLOOR_STEPS, np.inf)
            assert floor <= weighted <= lowest + RESIDUAL_TOL
            if kind != "zero-field ring":
                assert floor <= lowest

    @pytest.mark.parametrize("count", [2, 4])
    def test_pairs_above_the_ground_energy_still_found(self, monkeypatch, count):
        # A strong uniform field puts the ground state in sector n, alone at
        # -40, and every other floor above -40: no block may be skipped
        # before count pairs are in hand.
        n = 8
        ham = heisenberg_chain(n, 1.0, DisorderInstance((6.0,) * n, 0))
        expected = scipy.linalg.eigvalsh(dense_matrix(ham))[:count]
        _refuse_full_csr(monkeypatch)
        pairs = exact_lowest(ham, count=count)
        assert pairs.e0 == -40.0
        assert np.allclose(pairs.energies, expected, rtol=0.0, atol=1e-10)

    def test_tie_at_the_cut_goes_to_the_lower_sector(self, monkeypatch):
        # Blocks: |00> at -1 (floor -1), {|01>, |10>} = [[0, 2], [2, 3]] with
        # eigenvalues -1 and 4 (floor -2), and |11> at -2 (floor -2).  The
        # floor order solves sectors 1 and 2 first; sector 0's floor equals
        # the second-lowest energy, and sector 0 wins that tie.
        ham = parse_hamiltonian("1 ZI\n-0.5 IZ\n-1.5 ZZ\n1 XX\n1 YY\n")
        _refuse_full_csr(monkeypatch)
        pairs = exact_lowest(ham)
        assert pairs.energies == (-2.0, -1.0)
        assert pairs.psi0.tolist() == [0.0, 0.0, 0.0, 1.0]
        assert pairs.psi1.tolist() == [1.0, 0.0, 0.0, 0.0]


class TestEigenpairIO:
    def test_round_trip(self, tmp_path):
        ham, _ = build_model(ModelSpec(kind="tfim", n=4, seed=5))
        pairs = exact_lowest(ham)
        path = tmp_path / "pairs.npz"
        save_eigenpairs(path, pairs)
        with np.load(path) as data:
            assert tuple(data["energies"].tolist()) == pairs.energies
            assert np.array_equal(data["vectors"], pairs.vectors)
            assert data["vectors"].dtype == pairs.vectors.dtype
            assert bool(data["degenerate_ground"]) == pairs.degenerate_ground

    def test_invariants_checked_on_construction(self):
        eye = np.eye(4)
        with pytest.raises(ValueError, match="ascending"):
            EigenpairSet((1.0, 0.0), eye[:, :2])
        with pytest.raises(ValueError, match="one vector column"):
            EigenpairSet((0.0, 1.0), eye[:, :3])
        with pytest.raises(ValueError, match="normalized"):
            EigenpairSet((0.0, 1.0), 2.0 * eye[:, :2])

    def test_degenerate_ground_flips_across_the_gap(self):
        vectors = np.eye(4)[:, :2]
        below = EigenpairSet((-1.0, -1.0 + 0.5 * DEGENERACY_GAP), vectors)
        above = EigenpairSet((-1.0, -1.0 + 2.0 * DEGENERACY_GAP), vectors)
        assert below.degenerate_ground is True
        assert above.degenerate_ground is False
