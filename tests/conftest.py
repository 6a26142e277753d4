"""Shared test helpers."""

from __future__ import annotations

import numpy as np

from assqd.pauli import BasisState, PauliHamiltonian, PauliTerm
from assqd.subspace import DominantSupport, RestrictedSolution

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


def coupling(
    ham: PauliHamiltonian,
    sol: RestrictedSolution,
    dominant: DominantSupport,
    k: BasisState,
) -> complex:
    """nu_k = sum over the dominant support of c_s <k|H|s>, state by state.

    The literal sum that :func:`assqd.acquisition.coupling_map` matches
    bit for bit.
    """
    total = 0.0 + 0.0j
    for s in dominant.states:
        total += sol.coefficients[sol.subspace.positions(s)] * ham.matrix_element(k, s)
    return total
