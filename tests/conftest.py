"""Shared test helpers."""

from __future__ import annotations

# First, so that the package pins one BLAS thread before numpy loads; a
# test module may import numpy before it imports the package.
import assqd  # noqa: F401

import numpy as np

from assqd.pauli import PauliHamiltonian, PauliTerm
from assqd.sampling import CountsMultiset, ProbabilityModel
from assqd.subspace import DominantSupport

# Largest n whose full 2^n x 2^n matrix dense_matrix builds.
DENSE_MAX_QUBITS = 12


def random_hamiltonian(
    n: int, num_terms: int, rng: np.random.Generator
) -> PauliHamiltonian:
    """Random Pauli Hamiltonian with generic (continuous) coefficients.

    Identity-mask terms are allowed; duplicate masks merge inside the
    constructor.  Continuous coefficients make exact cancellations in
    summed matrix elements a measure-zero event.
    """
    terms = []
    for _ in range(num_terms):
        x_mask = int(rng.integers(0, 1 << n))
        z_mask = int(rng.integers(0, 1 << n))
        coeff = float(rng.normal())
        terms.append(PauliTerm(x_mask, z_mask, coeff))
    return PauliHamiltonian(n, terms)


def dense_matrix(ham: PauliHamiltonian) -> np.ndarray:
    """Full 2^n x 2^n matrix, term by term; refuses n > DENSE_MAX_QUBITS."""
    if ham.n > DENSE_MAX_QUBITS:
        raise ValueError(
            f"dense matrix limited to n <= {DENSE_MAX_QUBITS}, got n = {ham.n}"
        )
    dim = 1 << ham.n
    out = np.zeros((dim, dim), dtype=ham.dtype)
    idx = np.arange(dim, dtype=np.int64)
    for term in ham.terms:
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & term.z_mask) & 1)
        weight = term.weight.real if ham.is_real else term.weight
        # Within one term, (row, col) pairs are all distinct.
        out[idx ^ term.x_mask, idx] += weight * signs
    return out


def coupling(dominant: DominantSupport, k: int) -> complex:
    """nu_k = sum over the dominant support of c_s <k|H|s>, state by state.

    c and H are those of the support's solution.  The literal sum that
    :func:`assqd.acquisition.coupling_map` matches bit for bit.
    """
    sol = dominant.sol
    ham = sol.matrix.ham
    total = 0.0 + 0.0j
    for s in dominant.states:
        total += sol.coefficients[sol.subspace.positions(s)] * ham.matrix_element(k, s)
    return total


def counts_of(tally: dict[int, int], n: int) -> CountsMultiset:
    """A CountsMultiset from a {state: count} map given in any key order."""
    states = sorted(tally)
    return CountsMultiset(
        np.array(states, dtype=np.int64),
        np.array([tally[s] for s in states], dtype=np.int64),
        n,
    )


def tally_of(counts: CountsMultiset) -> dict[int, int]:
    """The counts as a {state: count} map of Python ints."""
    return dict(zip(counts.states.tolist(), counts.counts.tolist()))


def same_counts(a: CountsMultiset, b: CountsMultiset) -> bool:
    """Equal n and byte-equal state and count arrays."""
    return (a.n == b.n and a.states.tobytes() == b.states.tobytes()
            and a.counts.tobytes() == b.counts.tobytes())


def dense_model(probs) -> ProbabilityModel:
    """A ProbabilityModel listing all 2^n states, zero-probability ones too."""
    probs = np.asarray(probs, dtype=np.float64)
    states = np.arange(len(probs), dtype=np.int64)
    return ProbabilityModel(states, probs, len(probs).bit_length() - 1)


def dense_probs(model: ProbabilityModel) -> np.ndarray:
    """The model's probabilities as a length-2^n vector."""
    out = np.zeros(1 << model.n)
    out[model.states] = model.probs
    return out
