"""Property tests: the batch kernels equal their literal references exactly.

Random Pauli Hamiltonians on n <= 8 qubits, real ones (no Y at all) and
complex ones (one odd-Y term added), drive every comparison, and
``np.array_equal`` takes no tolerance: the batch paths sum the same terms
in the same order as the per-element references, so they must agree bit
for bit.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assqd.acquisition import (
    CandidateScores,
    coupling,
    coupling_map,
    generate_candidates,
    select_top_b,
)
from assqd.driver import METHOD_KINDS, RunConfig, run_as_sqd
from assqd.oracle import exact_lowest
from assqd.pauli import MAX_QUBITS, PauliHamiltonian, PauliTerm
from assqd.sampling import BIT_ORDERS, CountsMultiset, counts_to_json, parse_counts
from assqd.subspace import (
    Subspace,
    build_restricted,
    dominant_support,
    extend_restricted,
    lowest_eigenpair,
)

# Derandomized and without an example database, so every run of the suite
# checks the same examples and writes nothing.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

_COEFFICIENTS = st.floats(-2.0, 2.0).filter(lambda c: abs(c) >= 1e-3)


@st.composite
def hamiltonians(draw, real: bool | None = None) -> PauliHamiltonian:
    n = draw(st.integers(1, 8))
    masks = st.integers(0, (1 << n) - 1)
    terms = draw(st.lists(st.tuples(masks, masks, _COEFFICIENTS), max_size=24))
    if draw(st.booleans()) if real is None else real:
        # Clearing z on the x bits turns every Y into X: all elements real.
        return PauliHamiltonian(n, [PauliTerm(x, z & ~x, c) for x, z, c in terms])
    # One Y on qubit 0 makes the Hamiltonian complex (unless it cancels).
    odd_y = PauliTerm(1, 1, draw(_COEFFICIENTS))
    return PauliHamiltonian(n, [PauliTerm(x, z, c) for x, z, c in terms] + [odd_y])


def _states(draw, n: int, min_size: int = 0, max_size: int = 40) -> list[int]:
    return draw(st.lists(st.integers(0, (1 << n) - 1), min_size=min_size,
                         max_size=min(max_size, 1 << n), unique=True))


@PROPERTY
@given(st.data())
def test_amplitudes_equal_group_amplitude(data):
    ham = data.draw(hamiltonians())
    states = np.array(_states(data.draw, ham.n), dtype=np.int64)
    for x_mask in (0, (1 << ham.n) - 1) + ham.offdiag_masks:
        got = ham.amplitudes(x_mask, states)
        assert got.dtype == (np.float64 if ham.is_real else np.complex128)
        ref = np.array([ham._group_amplitude(x_mask, int(s)) for s in states])
        assert np.array_equal(got, ref)


@PROPERTY
@given(hamiltonians())
def test_diagonal_equals_dense_diagonal(ham):
    full = np.arange(1 << ham.n, dtype=np.int64)
    assert np.array_equal(ham.diagonal(full), ham.dense_matrix().diagonal())


@PROPERTY
@given(st.data())
def test_restricted_assembly_equals_elementwise_matrix_elements(data):
    ham = data.draw(hamiltonians())
    states = _states(data.draw, ham.n, min_size=1)
    ref = np.array([[ham.matrix_element(a, b) for b in states] for a in states])
    built = build_restricted(ham, Subspace(states))
    assert np.array_equal(built.entries, ref)
    split = data.draw(st.integers(1, len(states)))
    grown = extend_restricted(ham, build_restricted(ham, Subspace(states[:split])),
                              states[split:])
    assert grown.basis.states.tolist() == states
    assert np.array_equal(grown.entries, ref)


@PROPERTY
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_coupling_map_equals_literal_coupling(real, data):
    ham = data.draw(hamiltonians(real))
    states = _states(data.draw, ham.n, min_size=1, max_size=16)
    sol = lowest_eigenpair(build_restricted(ham, Subspace(states)))
    dominant = dominant_support(sol, data.draw(st.sampled_from([0.0, 1e-4, 0.05])))
    hops = data.draw(st.sampled_from([1, 2]))
    candidates = generate_candidates(ham, dominant, sol.subspace, hops=hops)
    ref = np.array([coupling(ham, sol, dominant, k) for k in candidates.tolist()],
                   dtype=np.complex128)
    assert np.array_equal(coupling_map(ham, sol, dominant, candidates), ref)


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
    )
    literal = [s for s, _ in sorted(entries, key=lambda e: (-e[1], e[0]))][:B]
    assert select_top_b(scored, B).tolist() == literal


@st.composite
def counts_multisets(draw, n: int) -> CountsMultiset:
    tallies = draw(st.dictionaries(st.integers(0, (1 << n) - 1),
                                   st.integers(1, 1000), min_size=1, max_size=20))
    return CountsMultiset(counts=tallies, n=n, total_shots=sum(tallies.values()))


@PROPERTY
@given(st.data(), st.sampled_from(BIT_ORDERS))
def test_counts_json_round_trip(data, bit_order):
    counts = data.draw(counts_multisets(data.draw(st.integers(1, MAX_QUBITS))))
    assert parse_counts(json.loads(counts_to_json(counts, bit_order))) == counts


# Seven full runs per example: fewer examples keep the suite fast.
@settings(PROPERTY, max_examples=10)
@pytest.mark.parametrize("real", [True, False])
@given(data=st.data())
def test_every_kind_stays_above_the_ground_energy(real, data):
    ham = data.draw(hamiltonians(real))
    counts = data.draw(counts_multisets(ham.n))
    e0 = exact_lowest(ham).e0
    config = RunConfig(K=data.draw(st.integers(1, 16)), B=data.draw(st.integers(1, 8)),
                       T=data.draw(st.integers(1, 3)))
    for kind in METHOD_KINDS:
        trace = run_as_sqd(ham, counts, dataclasses.replace(config, kind=kind))
        assert trace.final_energy >= e0 - 1e-9
