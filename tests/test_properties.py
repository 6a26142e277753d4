"""Property tests: the batch kernels equal their literal references exactly.

Random Pauli Hamiltonians on n <= 8 qubits (and n = 63 for the amplitude
kernel), real ones (no Y at all) and complex ones (one odd-Y term added),
drive every comparison, and ``np.array_equal`` takes no tolerance: the
batch paths sum the same terms in the same order as the per-element
references, so they must agree bit for bit.  Where a comparison is made on
``tobytes()``, the sign of a zero must agree too.  The set and scoring
code is held to numpy's set routines and to the per-mask two-hop loop it
replaced, kept here as the literal reference, also at n = 16 and 17,
either side of the limit past which the frontier is sorted instead of
marked on 2^n arrays.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import assqd.acquisition as acquisition_mod
import assqd.subspace as subspace_mod
from assqd.acquisition import (
    ACQUISITION_KINDS,
    MARK_MAX_QUBITS,
    CandidateScores,
    coupling_map,
    generate_candidates,
    score_candidates,
    score_two_hop,
    select_top_b,
)
from assqd.driver import METHOD_KINDS, RunConfig, run_as_sqd
import assqd.oracle as oracle_mod
import assqd.pauli as pauli_mod
from assqd.models import DisorderInstance, heisenberg_chain
from assqd.oracle import exact_lowest, popcount_sectors
from assqd.pauli import MAX_QUBITS, PauliHamiltonian, PauliTerm
from assqd.sampling import (
    BIT_ORDERS,
    CountsMultiset,
    ProbabilityModel,
    counts_to_json,
    parse_counts,
    sample_counts,
    top_k,
)
from assqd.subspace import (
    DominantSupport,
    RestrictedMatrix,
    Subspace,
    build_restricted,
    dominant_support,
    extend_restricted,
    lowest_eigenpair,
    sorted_positions,
)
from conftest import counts_of, coupling, dense_matrix, same_counts

# Derandomized and without an example database, so every run of the suite
# checks the same examples and writes nothing.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

_COEFFICIENTS = st.floats(-2.0, 2.0).filter(lambda c: abs(c) >= 1e-3)


@st.composite
def hamiltonians(draw, real: bool | None = None, sizes=st.integers(1, 8),
                 crowded: bool = False) -> PauliHamiltonian:
    """Random Hamiltonians; crowded ones put every term on x_mask 0 or all-ones,
    so each of the two groups sums many terms."""
    n = draw(sizes)
    masks = st.integers(0, (1 << n) - 1)
    x_masks = st.sampled_from([0, (1 << n) - 1]) if crowded else masks
    terms = draw(st.lists(st.tuples(x_masks, masks, _COEFFICIENTS), max_size=24))
    if draw(st.booleans()) if real is None else real:
        # Clearing z on the x bits turns every Y into X: all elements real.
        return PauliHamiltonian(n, [PauliTerm(x, z & ~x, c) for x, z, c in terms])
    # One Y on qubit 0 makes the Hamiltonian complex (unless it cancels).
    odd_y = PauliTerm(1, 1, draw(_COEFFICIENTS))
    return PauliHamiltonian(n, [PauliTerm(x, z, c) for x, z, c in terms] + [odd_y])


@st.composite
def support_hamiltonians(draw, real: bool) -> PauliHamiltonian:
    """Hamiltonians on n = 16, 17 or 63 whose groups each read exactly a drawn
    support, 0-2 bits or 15-17 bits wide: on either side of TABLE_MAX_BITS, so
    one block can hold tabled and direct groups."""
    n = draw(st.sampled_from([16, 17, MAX_QUBITS]))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        x_mask = draw(st.just(0) | st.integers(1, (1 << n) - 1))
        # A real H gets no Y: its z-masks avoid the x bits.
        free = [i for i in range(n) if not (real and x_mask >> i & 1)]
        width = min(draw(st.sampled_from([0, 1, 2, 15, 16, 17])), len(free))
        support = sum(1 << i for i in draw(st.permutations(free))[:width])
        z_masks = draw(st.lists(st.integers(0, support).map(lambda z: z & support),
                                max_size=4)) + [support]
        terms += [PauliTerm(x_mask, z, draw(_COEFFICIENTS)) for z in z_masks]
    if not real:
        terms.append(PauliTerm(1, 1, draw(_COEFFICIENTS)))
    return PauliHamiltonian(n, terms)


def _support(ham: PauliHamiltonian, x_mask: int) -> int:
    """OR of the z-masks of the terms with this x_mask: the bits they read."""
    support = 0
    for z_mask, _ in ham._groups.get(x_mask, ()):
        support |= z_mask
    return support


def _states(draw, n: int, min_size: int = 0, max_size: int = 40) -> list[int]:
    return draw(st.lists(st.integers(0, (1 << n) - 1), min_size=min_size,
                         max_size=min(max_size, 1 << n), unique=True))


def _bytes_equal(got: np.ndarray, ref: np.ndarray) -> bool:
    return got.dtype == ref.dtype and got.shape == ref.shape and (
        got.tobytes() == ref.tobytes())


@PROPERTY
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_amplitude_table_and_diagonal_bytes_equal_group_amplitude(real, data):
    ham = data.draw(hamiltonians(real, sizes=st.integers(1, 8) | st.just(MAX_QUBITS),
                                 crowded=data.draw(st.booleans()))
                    | support_hamiltonians(real))
    top_bit = st.integers(1 << (ham.n - 1), (1 << ham.n) - 1)
    states = np.array(data.draw(st.lists(st.integers(0, (1 << ham.n) - 1) | top_bit,
                                         max_size=40, unique=True)), dtype=np.int64)
    # Each group is tabled exactly when the bits its z-masks read fit the cap.
    for tables, masks in ((ham._diagonal_tables, (0,)),
                          (ham._offdiag_tables, ham.offdiag_masks)):
        assert tables.tabled.tolist() == [
            g for g, x_mask in enumerate(masks)
            if _support(ham, x_mask).bit_count() <= pauli_mod.TABLE_MAX_BITS]
    # A pass of 5 entries splits every batch into several passes.
    block = data.draw(st.sampled_from([pauli_mod.KERNEL_BLOCK, 5]))
    for batch in (states, states[:0]):
        ref = np.array([[ham._group_amplitude(x, int(s)) for s in batch]
                        for x in ham.offdiag_masks], dtype=np.complex128)
        ref = ref.reshape(len(ham.offdiag_masks), len(batch))
        diag = np.array([ham._group_amplitude(0, int(s)).real for s in batch],
                        dtype=np.float64)
        with mock.patch.object(pauli_mod, "KERNEL_BLOCK", block):
            assert _bytes_equal(ham.amplitude_table(batch),
                                ref.real.copy() if ham.is_real else ref)
            assert _bytes_equal(ham.diagonal(batch), diag)


@PROPERTY
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_sparse_matrix_rows_hold_matrix_elements_in_mask_order(real, data):
    ham = data.draw(hamiltonians(real))
    matrix = oracle_mod._csr_block(ham, np.arange(1 << ham.n, dtype=np.int64))
    indptr, indices, values = [0], [], []
    for i in range(1 << ham.n):
        for x_mask in (0,) + ham.offdiag_masks:
            value = ham.matrix_element(i, i ^ x_mask)
            if value != 0:
                indices.append(i ^ x_mask)
                values.append(value)
        indptr.append(len(indices))
    assert matrix.indptr.tolist() == indptr
    assert matrix.indices.tolist() == indices
    assert matrix.dtype == ham.dtype
    ref = np.array(values, dtype=np.complex128)
    if ham.is_real:
        assert matrix.data.tobytes() == ref.real.tobytes()
    else:
        # The builder takes <i|H|i^x> as conj(<i^x|H|i>), so a zero imaginary
        # part may come out as -0.0 where matrix_element gives +0.0.
        assert np.array_equal(matrix.data, ref)


@PROPERTY
@given(hamiltonians())
def test_diagonal_equals_dense_diagonal(ham):
    full = np.arange(1 << ham.n, dtype=np.int64)
    assert np.array_equal(ham.diagonal(full), dense_matrix(ham).diagonal())


@PROPERTY
@given(st.data())
def test_restricted_assembly_equals_elementwise_matrix_elements(data):
    ham = data.draw(hamiltonians())
    states = _states(data.draw, ham.n, min_size=1)
    ref = np.array([[ham.matrix_element(a, b) for b in states] for a in states])
    built = build_restricted(ham, Subspace(states))
    assert np.array_equal(built.dense(), ref)
    split = data.draw(st.integers(1, len(states)))
    grown = extend_restricted(build_restricted(ham, Subspace(states[:split])),
                              states[split:], ham.diagonal(states[split:]))
    assert grown.basis.states.tolist() == states
    assert np.array_equal(grown.dense(), ref)
    # The kernel rows kept by position: row j is the basis state j.
    table = np.column_stack([ham.diagonal(states), ham.amplitude_table(states).T])
    assert _bytes_equal(built.table, table)
    assert _bytes_equal(grown.table, table)


@PROPERTY
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_restricted_csc_products_bytes_equal_sorted_csr(real, data):
    # The Lanczos route multiplies by the CSC matrix; each row's terms are
    # added in ascending column order, as the CSR product adds them.
    ham = data.draw(hamiltonians(real))
    states = _states(data.draw, ham.n, min_size=1)
    split = data.draw(st.integers(1, len(states)))
    matrix = extend_restricted(build_restricted(ham, Subspace(states[:split])),
                               states[split:], ham.diagonal(states[split:]))
    csc = matrix.sparse()
    csr = csc.tocsr()
    assert csc.format == "csc" and csr.has_sorted_indices
    assert np.array_equal(csc.toarray(), matrix.dense())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(len(states))
    if not ham.is_real:
        x = x + 1j * rng.standard_normal(len(states))
    assert _bytes_equal(csc @ x, csr @ x)
    ones = np.ones(len(states))
    magnitude = oracle_mod._magnitude(csc)
    assert magnitude.format == "csc"
    assert _bytes_equal(magnitude @ ones, oracle_mod._magnitude(csr) @ ones)


@PROPERTY
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_restricted_csc_drops_zeros_and_keeps_product_bytes(real, data):
    # XX + YY (and XY - YX) cancel exactly between two states whose bond
    # bits are aligned, so a subspace holding such a pair links zeros.
    ham = data.draw(conserving_hamiltonians())
    terms = [t for t in ham.terms if (t.x_mask & t.z_mask).bit_count() % 2 == 0]
    if not real:
        terms.append(PauliTerm(0b11, 0b10, data.draw(_COEFFICIENTS)))
        terms.append(PauliTerm(0b11, 0b01, -terms[-1].coefficient))
    ham = PauliHamiltonian(ham.n, terms)
    bond = data.draw(st.sampled_from([x for x in ham.offdiag_masks
                                      if x.bit_count() == 2]))
    aligned = data.draw(st.integers(0, (1 << ham.n) - 1)) & ~bond
    aligned |= data.draw(st.sampled_from([0, bond]))
    states = list(dict.fromkeys([aligned, aligned ^ bond]
                                + _states(data.draw, ham.n)))
    matrix = build_restricted(ham, Subspace(states))
    csc = matrix.sparse()
    linked = matrix.links >= 0
    assert 0 in matrix.table[linked]
    assert csc.nnz == np.count_nonzero(matrix.table[linked])
    assert np.all(csc.data != 0) and np.array_equal(csc.toarray(), matrix.dense())
    # The CSC that keeps every linked entry, zeros too.
    at = np.flatnonzero(linked.reshape(-1))
    indptr = np.searchsorted(at, np.arange(0, matrix.links.size + 1, linked.shape[1]))
    full = scipy.sparse.csc_array(
        (matrix.table.take(at), matrix.links.take(at), indptr), shape=csc.shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(len(states))
    if not real:
        x = x + 1j * rng.standard_normal(len(states))
    assert _bytes_equal(csc @ x, full @ x)
    assert _bytes_equal(csc.T @ x, full.T @ x)


@PROPERTY
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_split_extension_across_the_solver_crossover(real, data):
    ham = data.draw(hamiltonians(real))
    assume(ham.n >= 2)
    states = _states(data.draw, ham.n, min_size=4)
    split = data.draw(st.integers(2, len(states) - 1))
    base = build_restricted(ham, Subspace(states[:split]))
    grown = extend_restricted(base, states[split:], ham.diagonal(states[split:]))
    ref = np.array([[ham.matrix_element(a, b) for b in states] for a in states])
    assert np.array_equal(grown.dense(), ref)
    dense = lowest_eigenpair(grown)
    # At the patched crossover the base would still solve densely; the
    # grown matrix runs seeded Lanczos on its CSR form.
    with mock.patch.object(subspace_mod, "DENSE_SOLVE_MAX", split):
        sparse = lowest_eigenpair(grown)
    assert abs(sparse.energy - dense.energy) <= 1e-9


def _guess(data, ham, states, matrix, real):
    """A start guess for the restricted solve: random entries, the ground
    vector of a prefix padded with zeros (the expansion loop's kind), or
    random entries on one connected block of H_S only."""
    m = len(states)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = data.draw(st.sampled_from(["random", "zero-padded", "one-block"]))
    if shape == "zero-padded":
        prefix = data.draw(st.integers(1, m - 1))
        head = lowest_eigenpair(build_restricted(ham, Subspace(states[:prefix])))
        guess = np.concatenate([head.coefficients, np.zeros(m - prefix)])
        return guess.real if real else guess
    guess = rng.standard_normal(m) if real else (
        rng.standard_normal(m) + 1j * rng.standard_normal(m))
    if shape == "one-block":
        pattern = scipy.sparse.csr_array(np.abs(matrix.dense()) > 0)
        _, block = scipy.sparse.csgraph.connected_components(pattern, directed=False)
        guess[block != block[data.draw(st.integers(0, m - 1))]] = 0.0
    return guess


@PROPERTY
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_warm_restricted_solve_finds_the_dense_energy(real, data):
    ham = data.draw(hamiltonians(real))
    assume(ham.n >= 2)
    states = _states(data.draw, ham.n, min_size=4)
    matrix = build_restricted(ham, Subspace(states))
    guess = _guess(data, ham, states, matrix, real)
    dense = lowest_eigenpair(matrix)
    # Patched low, every solve here takes the Lanczos route from the guess.
    with mock.patch.object(subspace_mod, "DENSE_SOLVE_MAX", 2):
        warm = lowest_eigenpair(matrix, guess)
        again = lowest_eigenpair(matrix, guess)
    scale = max(1.0, abs(dense.energy))
    assert abs(warm.energy - dense.energy) <= 1e-10 * scale
    vec = warm.coefficients
    assert np.linalg.norm(matrix.dense() @ vec - warm.energy * vec) <= 1e-9 * scale
    # The same guess, the same bits.
    assert warm.energy == again.energy
    assert _bytes_equal(again.coefficients, warm.coefficients)


# Restricted solves on up to 16 states stay small at any n, so the scoring
# properties also run on states of n = 63 qubits.
_SCORING_SIZES = st.integers(1, 8) | st.just(MAX_QUBITS)
# The frontier's set operations read mark arrays up to MARK_MAX_QUBITS and
# sort past it, so its tests draw the sizes on both sides of that limit too.
_FRONTIER_SIZES = _SCORING_SIZES | st.sampled_from([MARK_MAX_QUBITS, MARK_MAX_QUBITS + 1])


def _solved(data, real, sizes=_SCORING_SIZES):
    """A random H, its ground pair on up to 16 drawn states, and a drawn D."""
    ham = data.draw(hamiltonians(real, sizes=sizes))
    states = _states(data.draw, ham.n, min_size=1, max_size=16)
    sol = lowest_eigenpair(build_restricted(ham, Subspace(states)))
    dominant = dominant_support(sol, data.draw(st.sampled_from([0.0, 1e-4, 0.05])))
    return ham, sol, dominant


@PROPERTY
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_coupling_map_equals_literal_coupling(real, data):
    ham, sol, dominant = _solved(data, real)
    if data.draw(st.sampled_from([1, 2])) == 1:
        candidates = generate_candidates(dominant)
        got = coupling_map(candidates)
        candidates = candidates.states
    else:
        scored = score_two_hop("random", dominant, rng_seed=0)
        candidates, got = scored.states, scored.coupling
    ref = np.array([coupling(dominant, k) for k in candidates.tolist()],
                   dtype=np.complex128)
    assert np.array_equal(got, ref)


@PROPERTY
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_dominant_rows_are_subspace_positions(real, data):
    _, sol, dominant = _solved(data, real)
    assert _bytes_equal(dominant.rows, sol.subspace.positions(dominant.states))


def _literal_scores(kind, ham, sol, dominant, states, eps):
    """Every kind's score, with nu as coupling() per candidate."""
    h_kk = ham.diagonal(states)
    nu = np.array([coupling(dominant, k) for k in states.tolist()],
                  dtype=np.complex128)
    gap = np.maximum(np.abs(sol.energy - h_kk), eps)
    score = {"en": lambda: np.abs(nu) ** 2 / gap,
             "coupling_only": lambda: np.abs(nu) ** 2,
             "denom_only": lambda: 1.0 / gap,
             "diag_only": lambda: -h_kk,
             "random": lambda: np.random.default_rng(0).random(len(states))}[kind]()
    return states, h_kk, nu, score


@PROPERTY
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_one_hop_scores_bytes_equal_literal_coupling(real, data):
    ham, sol, dominant = _solved(data, real)
    eps = data.draw(st.sampled_from([1e-8, 0.5]))
    kind = data.draw(st.sampled_from(ACQUISITION_KINDS))
    frontier = generate_candidates(dominant)
    got = score_candidates(kind, frontier, eps=eps, rng_seed=0)
    ref = _literal_scores(kind, ham, sol, dominant, frontier.states, eps)
    for array, expected in zip(
        (got.states, got.diagonal, got.coupling, got.score), ref
    ):
        assert _bytes_equal(array, expected)


def _frontier(ham: PauliHamiltonian, states: np.ndarray) -> np.ndarray:
    masks = np.array(ham.offdiag_masks, dtype=np.int64)
    return (states[:, None] ^ masks).ravel()


def _two_hop_reference(kind, ham, sol, dominant, subspace, eps):
    """score_two_hop over numpy's set routines, the "en" stand-in per mask.

    Returns (states, diagonal, coupling, score) in ascending-state order.
    """
    one_hop = np.setdiff1d(_frontier(ham, dominant.states), subspace.states)
    pure_two = np.setdiff1d(_frontier(ham, one_hop),
                            np.union1d(one_hop, subspace.states))
    if kind != "en":
        return _literal_scores(kind, ham, sol, dominant,
                               np.union1d(one_hop, pure_two), eps)
    _, h_mm, nu_m, _ = _literal_scores("en", ham, sol, dominant, one_hop, eps)
    nu_m_sq = np.abs(nu_m) ** 2
    denom_m = np.maximum(np.abs(sol.energy - h_mm), eps)
    best = np.zeros(len(pure_two))
    table = ham.amplitude_table(one_hop)
    for g, x_mask in enumerate(ham.offdiag_masks):
        at = sorted_positions(pure_two, one_hop ^ x_mask)
        hit = at >= 0
        amp = table[g, hit]
        np.maximum.at(best, at[hit], np.abs(amp) ** 2 * nu_m_sq[hit] / denom_m[hit])
    h_kk = ham.diagonal(pure_two)
    states = np.concatenate([one_hop, pure_two])
    order = np.argsort(states)
    return (states[order],
            np.concatenate([h_mm, h_kk])[order],
            np.concatenate([nu_m, np.zeros(len(pure_two), complex)])[order],
            np.concatenate([np.abs(nu_m) ** 2 / denom_m,
                            best / np.maximum(np.abs(sol.energy - h_kk), eps)])[order])


@PROPERTY
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_score_two_hop_bytes_equal_per_mask_loop(real, data):
    ham, sol, dominant = _solved(data, real, _FRONTIER_SIZES)
    eps = data.draw(st.sampled_from([1e-8, 0.5]))
    kind = data.draw(st.sampled_from(ACQUISITION_KINDS))
    got = score_two_hop(kind, dominant, eps=eps, rng_seed=0)
    ref = _two_hop_reference(kind, ham, sol, dominant, sol.subspace, eps)
    for array, expected in zip(
        (got.states, got.diagonal, got.coupling, got.score), ref
    ):
        assert _bytes_equal(array, expected)


def _frontier_inputs(data, sizes):
    """A random H, its matrix on a drawn subspace and a D of any rows of it.

    The subspace's states lie in [0, 16), so the frontiers of its states
    overlap; D's rows come in any order, with repeats, or not at all.
    """
    ham = data.draw(hamiltonians(sizes=sizes))
    states = st.integers(0, min((1 << ham.n) - 1, 15))
    subspace = Subspace(np.unique(data.draw(st.lists(states, min_size=1, max_size=24))))
    sol = lowest_eigenpair(build_restricted(ham, subspace))
    rows = data.draw(st.lists(st.integers(0, len(subspace) - 1), max_size=24))
    return ham, sol.matrix, DominantSupport(sol, np.array(rows, dtype=np.int64))


@PROPERTY
@given(st.data())
def test_generate_candidates_equals_numpy_set_forms(data):
    ham, matrix, dominant = _frontier_inputs(data, _FRONTIER_SIZES)
    one_hop = np.setdiff1d(_frontier(ham, dominant.states), matrix.basis.states)
    frontier = generate_candidates(dominant)
    assert _bytes_equal(frontier.states, one_hop)
    steps = dominant.states[:, None] ^ np.array(ham.offdiag_masks, dtype=np.int64)
    assert _bytes_equal(frontier.pairs, sorted_positions(frontier.states, steps))


# Every target _outside meets steps from a support state by one or two of
# H's masks, all in [0, 2^n), so it needs no range check of its own.
@PROPERTY
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_built_frontiers_lie_in_the_register_outside_the_subspace(real, data):
    ham = data.draw(hamiltonians(real, sizes=st.integers(1, MAX_QUBITS)))
    states = _states(data.draw, ham.n, min_size=1, max_size=16)
    sol = lowest_eigenpair(build_restricted(ham, Subspace(states)))
    rows = data.draw(st.lists(st.integers(0, len(states) - 1), max_size=16))
    dominant = DominantSupport(sol, np.array(rows, dtype=np.int64))
    one_hop = generate_candidates(dominant).states
    two_hop = score_two_hop("random", dominant, rng_seed=0).states
    for frontier in (one_hop, two_hop):
        assert all(0 <= s < 1 << ham.n for s in frontier.tolist())
        assert not np.isin(frontier, states).any()


@PROPERTY
@given(st.data())
def test_sort_path_bytes_equal_mark_path(data):
    _, matrix, dominant = _frontier_inputs(
        data, st.integers(1, 8) | st.just(MARK_MAX_QUBITS))
    marked = generate_candidates(dominant)
    # Every n is past a limit of 0, so this runs the sort path.
    with mock.patch.object(acquisition_mod, "MARK_MAX_QUBITS", 0):
        sorted_ = generate_candidates(dominant)
    assert _bytes_equal(sorted_.states, marked.states)
    assert _bytes_equal(sorted_.pairs, marked.pairs)


@PROPERTY
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_stepwise_extension_bytes_equal_one_build(real, data):
    ham = data.draw(hamiltonians(real, sizes=_SCORING_SIZES))
    # States one or two masks from an anchor link to each other at any n.
    anchor = data.draw(st.integers(0, (1 << ham.n) - 1))
    masks = (0,) + ham.offdiag_masks
    near = st.sampled_from([anchor ^ x ^ y for x in masks for y in masks])
    states = data.draw(st.lists(near | st.integers(0, (1 << ham.n) - 1),
                                min_size=1, max_size=40, unique=True))
    cuts = data.draw(st.lists(st.integers(1, len(states)), max_size=4))
    cuts = [0] + sorted(set(cuts) - {len(states)}) + [len(states)]
    grown = build_restricted(ham, Subspace(states[:cuts[1]]))
    for lo, hi in zip(cuts[1:], cuts[2:]):
        step = states[lo:hi]
        grown = extend_restricted(grown, step, ham.diagonal(step))
    built = build_restricted(ham, Subspace(states))
    assert _bytes_equal(grown.basis.states, built.basis.states)
    assert _bytes_equal(grown.table, built.table)
    assert _bytes_equal(grown.links, built.links)
    assert _bytes_equal(grown.dense(), built.dense())
    for field in ("data", "indices", "indptr"):
        assert _bytes_equal(getattr(grown.sparse(), field), getattr(built.sparse(), field))
    present = data.draw(st.sampled_from(states))
    with pytest.raises(ValueError, match="unique"):
        extend_restricted(grown, [present], ham.diagonal([present]))
    if len(states) < 1 << ham.n:
        outside = data.draw(st.integers(0, (1 << ham.n) - 1).filter(
            lambda s: s not in states))
        with pytest.raises(ValueError, match="unique"):
            extend_restricted(grown, [outside] * 2, ham.diagonal([outside] * 2))


def _int64(value: int) -> int:
    """The int64 whose bits are value's low 64: 2^63 + s wraps to -2^63 + s."""
    return (value + (1 << 63)) % (1 << 64) - (1 << 63)


@PROPERTY
@given(st.data())
def test_matrix_refuses_exactly_the_states_outside_the_register(data):
    ham = data.draw(hamiltonians(sizes=st.integers(1, MAX_QUBITS)))
    n = ham.n
    states = _states(data.draw, n, min_size=1, max_size=8)
    alias = data.draw(st.sampled_from(states))
    # 2^n + s has s's low n bits: it aliases the basis state s.
    beyond = st.sampled_from([-1, _int64(1 << n), _int64((1 << n) + alias)])
    if len(states) < 1 << n:
        beyond |= st.integers(0, (1 << n) - 1).filter(lambda s: s not in states)
    extra = data.draw(beyond)
    inside = 0 <= extra < 1 << n
    refused = contextlib.nullcontext() if inside else pytest.raises(
        ValueError, match=rf"basis states must lie in \[0, 2\^{n}\)")
    built = build_restricted(ham, Subspace(states))
    with refused:
        build_restricted(ham, Subspace(states + [extra]))
    with refused:
        extend_restricted(built, [extra], ham.diagonal([extra]))
    # The same table and links over a basis with its last state replaced.
    with refused:
        RestrictedMatrix(ham, Subspace(states[:-1] + [extra]), built.table, built.links)
    for width in (built.table.shape[1] - 1, built.table.shape[1] + 1):
        with pytest.raises(ValueError, match="one column per mask"):
            RestrictedMatrix(ham, built.basis, np.resize(built.table, (len(states), width)),
                             np.zeros((len(states), width), dtype=np.int64))


@PROPERTY
@given(
    st.lists(
        st.tuples(st.integers(0, 2**63 - 1),
                  st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-10, 10)),
        unique_by=lambda entry: entry[0],
        max_size=30,
    ),
    st.integers(1, 40),
)
def test_select_top_b_matches_literal_sort(entries, B):
    zeros = np.zeros(len(entries))
    scored = CandidateScores(
        states=np.array([s for s, _ in entries], dtype=np.int64), diagonal=zeros,
        coupling=zeros.astype(complex), score=np.array([v for _, v in entries]),
        gap=zeros,
    )
    literal = [s for s, _ in sorted(entries, key=lambda e: (-e[1], e[0]))][:B]
    assert select_top_b(scored, B).states.tolist() == literal


# Four score values, two of them equal zeros, make long tie blocks; B
# lands on the edge of one or a step either side, so the B-th key can be
# tied with keys before and after it.  The reference is the one lexsort
# of the whole pool that select_top_b made before it partitioned.
@PROPERTY
@given(data=st.data())
def test_select_top_b_equals_lexsort_across_tie_blocks(data):
    states = np.array(data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=1,
                                         max_size=80, unique=True)), dtype=np.int64)
    score = np.array(data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 3.0]),
                                        min_size=len(states), max_size=len(states))))
    literal = np.lexsort((states, -score))
    edges = np.flatnonzero(np.diff(score[literal])) + 1
    edge = data.draw(st.sampled_from(edges.tolist() + [len(states)]))
    B = max(1, edge + data.draw(st.integers(-1, 1)))
    scored = CandidateScores(states=states, diagonal=score * 0.5,
                             coupling=score + 1j * score, score=score, gap=score - 2.0)
    picked = select_top_b(scored, B)
    top = literal[:B]
    for got, ref in zip(dataclasses.astuple(picked), dataclasses.astuple(scored)):
        assert _bytes_equal(got, ref[top])


@st.composite
def counts_multisets(draw, n: int) -> CountsMultiset:
    tallies = draw(st.dictionaries(st.integers(0, (1 << n) - 1),
                                   st.integers(1, 1000), min_size=1, max_size=20))
    return counts_of(tallies, n)


# Few distinct tallies make ties common.
@PROPERTY
@given(st.dictionaries(st.integers(0, 15) | st.integers(0, 2**63 - 1),
                       st.integers(1, 4) | st.integers(1, 2**40), min_size=1,
                       max_size=30),
       st.integers(1, 40))
def test_top_k_matches_literal_sort(tallies, K):
    counts = counts_of(tallies, MAX_QUBITS)
    literal = [s for s, _ in sorted(tallies.items(), key=lambda e: (-e[1], e[0]))][:K]
    picked = top_k(counts, K)
    assert picked.dtype == np.int64 and picked.tolist() == literal


@PROPERTY
@given(st.data(), st.sampled_from(BIT_ORDERS))
def test_counts_json_round_trip(data, bit_order):
    counts = data.draw(counts_multisets(data.draw(st.integers(1, MAX_QUBITS))))
    assert same_counts(parse_counts(json.loads(counts_to_json(counts, bit_order))), counts)


def _state_lists(n: int, min_size: int = 1):
    """Sorted lists of distinct states of n qubits."""
    return st.lists(st.integers(0, (1 << n) - 1), min_size=min_size, max_size=8,
                    unique=True).map(sorted)


def _unit_weights(cls, size: int) -> np.ndarray:
    """Valid weights for ``size`` states: unit counts or a uniform distribution."""
    if cls is CountsMultiset:
        return np.ones(size, dtype=np.int64)
    return np.full(size, 1.0 / size)


_STATE_SETS = st.sampled_from([CountsMultiset, ProbabilityModel])


@PROPERTY
@given(st.data(), st.sampled_from([1, MAX_QUBITS]), _STATE_SETS)
def test_state_sets_refuse_states_out_of_order_or_range(data, n, cls):
    states = data.draw(_state_lists(n, min_size=2))
    # 2^63 is no int64, so at n = 63 no state can lie beyond the range.
    flaw = data.draw(st.sampled_from(
        ["unsorted", "repeated", "negative"] + (["beyond"] if n < MAX_QUBITS else [])))
    if flaw == "unsorted":
        states[0], states[1] = states[1], states[0]
    elif flaw == "repeated":
        states[1] = states[0]
    elif flaw == "negative":
        states[0] = data.draw(st.integers(-2**63, -1))
    else:
        states[-1] = data.draw(st.integers(1 << n, 2**63 - 1))
    with pytest.raises(ValueError, match="strictly ascending within"):
        cls(np.array(states, dtype=np.int64), _unit_weights(cls, len(states)), n)


@PROPERTY
@given(st.data(), st.sampled_from([1, MAX_QUBITS]), _STATE_SETS)
def test_state_sets_refuse_misshapen_or_nonpositive_weights(data, n, cls):
    states = np.array(data.draw(_state_lists(n)), dtype=np.int64)
    weights = _unit_weights(cls, len(states))
    flaw = data.draw(st.sampled_from(["short", "long", "2-D", "list", "sign"]))
    match = "weights must"
    if flaw == "short":
        weights = weights[1:]
    elif flaw == "long":
        weights = np.append(weights, weights[:1])
    elif flaw == "2-D":
        weights = weights[None, :]
    elif flaw == "list":
        weights = weights.tolist()
    elif cls is CountsMultiset:
        weights[data.draw(st.integers(0, len(states) - 1))] = data.draw(st.integers(-9, 0))
        match = "positive int64"
    else:
        weights[data.draw(st.integers(0, len(states) - 1))] = -0.25
        match = "nonnegative"
    with pytest.raises(ValueError, match=match):
        cls(states, weights, n)


@PROPERTY
@given(_state_lists(MAX_QUBITS), st.integers(1, 5000), st.integers(0, 2**32),
       st.sampled_from(BIT_ORDERS))
def test_sparse_model_at_63_qubits_samples_its_support(states, shots, seed, bit_order):
    states = np.array(states, dtype=np.int64)
    weights = np.arange(1.0, len(states) + 1.0)
    model = ProbabilityModel(states, weights / weights.sum(), MAX_QUBITS)
    counts = sample_counts(model, shots, seed)
    assert np.isin(counts.states, states).all()
    assert counts.counts.sum() == shots
    assert same_counts(counts, sample_counts(model, shots, seed))
    assert same_counts(parse_counts(json.loads(counts_to_json(counts, bit_order))), counts)
    assert top_k(counts, 1)[0] == counts.states[np.argmax(counts.counts)]


@PROPERTY
@given(st.data(), st.integers(1, 5000), st.integers(0, 2**32))
def test_listed_zero_probability_states_move_no_bit(data, shots, seed):
    n = data.draw(st.integers(1, MAX_QUBITS))
    states = np.array(data.draw(_state_lists(n)), dtype=np.int64)
    raw = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0, 1),
                                      min_size=len(states), max_size=len(states))))
    assume(raw.sum() > 0)
    probs = raw / raw.sum()
    listed = ProbabilityModel(states, probs, n)
    kept = probs > 0
    support = ProbabilityModel(states[kept], probs[kept], n)
    assert same_counts(sample_counts(listed, shots, seed),
                       sample_counts(support, shots, seed))


# Seven full runs per example: fewer examples keep the suite fast.  Two
# hops send every kind through score_two_hop.
@settings(PROPERTY, max_examples=10)
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_every_kind_stays_above_the_ground_energy(real, data):
    ham = data.draw(hamiltonians(real))
    counts = data.draw(counts_multisets(ham.n))
    e0 = exact_lowest(ham).e0
    config = RunConfig(K=data.draw(st.integers(1, 16)), B=data.draw(st.integers(1, 8)),
                       T=data.draw(st.integers(1, 3)),
                       hops=data.draw(st.sampled_from((1, 2))))
    for kind in METHOD_KINDS:
        trace = run_as_sqd(ham, counts, dataclasses.replace(config, kind=kind))
        assert trace.final_energy >= e0 - 1e-9


class _Handed(Exception):
    """Raised in place of the block solve, once its arguments are recorded."""


@PROPERTY
@example(n=14, coupling=1.0, fields="drawn", seed=0, dm=0.0)
@example(n=14, coupling=1.0, fields="zero", seed=0, dm=0.3)
@given(n=st.integers(2, 14), coupling=_COEFFICIENTS, fields=st.sampled_from(("drawn", "zero")),
       seed=st.integers(0, 2**16), dm=st.sampled_from((0.0, 0.3, -1.1)))
def test_sector_floors_equal_the_csr_floor_bit_for_bit(n, coupling, fields, seed, dm):
    # Pass 1 sums each state's row magnitudes from the kernel, never making
    # a block; the floors it hands the solver must be the Gershgorin floors
    # of the CSR blocks (_weighted_floor with no steps), to the bit.
    # The zero-field ring has rows whose diagonal cancels, which the CSR
    # block drops; the DM bond XY - YX makes H complex.
    drawn = np.random.default_rng(seed).normal(0.0, 0.5, n) if fields == "drawn" else [0.0] * n
    ham = heisenberg_chain(n, coupling, DisorderInstance(tuple(map(float, drawn)), seed))
    if dm:
        ham = PauliHamiltonian(n, list(ham.terms) + [PauliTerm(0b11, 0b10, dm),
                                                     PauliTerm(0b11, 0b01, -dm)])
    handed = []

    def record(*args):
        handed.append(args)
        raise _Handed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_mod, "_lowest_over_blocks", record)
        with pytest.raises(_Handed):
            exact_lowest(ham)
    ((_, sectors, floors, _),) = handed
    assert len(sectors) == len(floors) == n + 1
    for states, pass_one in zip(sectors, floors):
        floor = oracle_mod._weighted_floor(oracle_mod._csr_block(ham, states), 0, np.inf)
        assert np.float64(pass_one).tobytes() == np.float64(floor).tobytes()


@st.composite
def sector_hamiltonians(draw) -> PauliHamiltonian:
    """Z fields, ZZ and XX + YY bonds (real), DM bonds XY - YX (complex),
    and at most one leaking X or Y term, on n <= 8 qubits.

    XX + YY and XY - YX conserve popcount: on aligned bits their two terms
    cancel exactly.  The leak is a word of X and Y letters, and of Z on
    other qubits, so each of its amplitudes has unit modulus and moves the
    state's popcount when the state's X and Y bits are not half set, unless
    it merges with a bond and is cancelled there.
    """
    n = draw(st.integers(2, 8))
    qubit = st.integers(0, n - 1)
    terms = [PauliTerm(0, 1 << q, c) for q, c in draw(st.lists(st.tuples(qubit, _COEFFICIENTS),
                                                                 max_size=n))]
    pairs = st.tuples(qubit, qubit, _COEFFICIENTS).filter(lambda b: b[0] != b[1])
    for i, j, c in draw(st.lists(pairs, max_size=2 * n)):
        bond = (1 << i) | (1 << j)
        terms += [PauliTerm(0, bond, c), PauliTerm(bond, 0, c), PauliTerm(bond, bond, c)]
    for i, j, c in draw(st.lists(pairs, max_size=2)):
        terms += [PauliTerm((1 << i) | (1 << j), 1 << j, c),
                  PauliTerm((1 << i) | (1 << j), 1 << i, -c)]
    if draw(st.booleans()):
        x_mask = draw(st.integers(1, (1 << n) - 1))
        y_mask = draw(st.integers(0, (1 << n) - 1)) & x_mask
        z_mask = draw(st.integers(0, (1 << n) - 1)) & ~x_mask
        terms.append(PauliTerm(x_mask, y_mask | z_mask, draw(_COEFFICIENTS)))
    return PauliHamiltonian(n, terms)


@PROPERTY
@example(ham=PauliHamiltonian(3, [PauliTerm(0b011, 0, 1.0), PauliTerm(0b011, 0b011, 1.0)]))
@example(ham=PauliHamiltonian(3, [PauliTerm(0b011, 0, 1.0), PauliTerm(0b011, 0b011, 1.0),
                                  PauliTerm(0b100, 0b100, 0.5)]))
@example(ham=PauliHamiltonian(3, [PauliTerm(0b110, 0b100, 0.7),
                                  PauliTerm(0b110, 0b010, -0.7), PauliTerm(0b001, 0, 0.2)]))
@given(ham=sector_hamiltonians())
def test_sector_split_refused_exactly_when_h_leaves_a_sector(ham):
    # Pass 1's leave test reads each state's amplitudes, never the matrix;
    # it must refuse the split exactly when the dense matrix has a nonzero
    # entry between two states of different popcount.
    weights = np.bitwise_count(np.arange(1 << ham.n))
    dense = dense_matrix(ham)
    leaves = bool(np.any(dense[weights[:, None] != weights[None, :]] != 0))
    assert (popcount_sectors(ham) is None) == leaves


@st.composite
def conserving_hamiltonians(draw) -> PauliHamiltonian:
    """XX + YY and ZZ bonds with their own drawn couplings, Z fields that may
    all be zero, and DM bonds XY - YX, on n <= 9 qubits.

    Every term conserves popcount.  Without fields, flipping every spin
    (with complex conjugation, which DM bonds need) maps sector w onto
    sector n - w, so their spectra tie exactly.
    """
    n = draw(st.integers(2, 9))
    qubit = st.integers(0, n - 1)
    pairs = st.tuples(qubit, qubit).filter(lambda b: b[0] != b[1])
    terms = []
    for i, j in draw(st.lists(pairs, min_size=1, max_size=2 * n)):
        bond, flip = (1 << i) | (1 << j), draw(_COEFFICIENTS)
        terms += [PauliTerm(bond, 0, flip), PauliTerm(bond, bond, flip),
                  PauliTerm(0, bond, draw(_COEFFICIENTS))]
    if draw(st.booleans()):
        fields = draw(st.lists(_COEFFICIENTS, min_size=n, max_size=n))
        terms += [PauliTerm(0, 1 << q, c) for q, c in enumerate(fields)]
    for i, j in draw(st.lists(pairs, max_size=2)):
        dm = draw(_COEFFICIENTS)
        terms += [PauliTerm((1 << i) | (1 << j), 1 << j, dm),
                  PauliTerm((1 << i) | (1 << j), 1 << i, -dm)]
    return PauliHamiltonian(n, terms)


@settings(PROPERTY, max_examples=40)
@given(ham=conserving_hamiltonians(), data=st.data())
def test_sector_route_gives_the_lowest_dense_energies(ham, data):
    # On the default route, the lead choice, both skips, the tie re-solve
    # and the deepening all run on random spectra.  Every block holds at
    # most C(9, 4) = 126 states, so each is solved densely.  At 30
    # examples a deepening that stops one rank short still passed.
    count = data.draw(st.integers(2, min(8, 1 << ham.n)))
    assert popcount_sectors(ham) is not None
    energies = exact_lowest(ham, count).energies
    reference = np.linalg.eigvalsh(dense_matrix(ham))[:count]
    assert np.max(np.abs(np.array(energies) - reference)) <= 1e-9
