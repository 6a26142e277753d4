"""Restricted Hamiltonians on selected basis sets and their ground pairs.

The subspace is an int64 array of distinct basis states in insertion
order, the restricted matrix's order; since those are orthonormal, the
restricted problem is an ordinary (not generalized) Hermitian
eigenproblem H_S c = E_S c.  Assembly exploits Pauli sparsity: entry
(i, j) can only be nonzero when s_i XOR s_j matches some term's x_mask,
so new columns take one :meth:`PauliHamiltonian.amplitudes` batch per
distinct mask instead of m lookups each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from assqd.oracle import ConvergenceError, fix_phase
from assqd.pauli import BasisState, PauliHamiltonian

# Dense eigensolve up to this subspace size, ARPACK beyond.
DENSE_SOLVE_MAX = 2000

HERMITICITY_ATOL = 1e-12


def sorted_positions(ascending: np.ndarray, states) -> np.ndarray:
    """Index of each state in an ascending int64 array; -1 where absent."""
    at = np.searchsorted(ascending, states)
    # The -1 pad past the end matches no state, so a miss there is absent too.
    return np.where(np.append(ascending, -1)[at] == states, at, -1)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Distinct basis states as an int64 array, in insertion order."""

    states: np.ndarray

    def __post_init__(self) -> None:
        states = np.array(self.states, dtype=np.int64).reshape(-1)
        states.flags.writeable = False
        order = np.argsort(states)
        ascending = states[order]
        if np.any(ascending[1:] == ascending[:-1]):
            raise ValueError("subspace states must be unique")
        object.__setattr__(self, "states", states)
        # A trailing -1 turns sorted_positions' -1 (absent) into a row of -1.
        object.__setattr__(self, "_rows", np.append(order, -1))
        object.__setattr__(self, "_ascending", ascending)

    def positions(self, states) -> np.ndarray:
        """Row of each given state in the subspace order; -1 where absent."""
        return self._rows[sorted_positions(self._ascending, states)]

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, state: BasisState) -> bool:
        return bool(self.positions(state) >= 0)

    def extend(self, new_states) -> Subspace:
        """Append states not seen before, keeping first-seen order."""
        joined = np.concatenate([self.states, np.asarray(new_states, dtype=np.int64)])
        _, first = np.unique(joined, return_index=True)
        return Subspace(joined[np.sort(first)])


@dataclass(frozen=True)
class RestrictedMatrix:
    """H projected onto a subspace: entries[i, j] = <s_i|H|s_j>."""

    entries: np.ndarray
    basis: Subspace

    def __post_init__(self) -> None:
        m = len(self.basis)
        if self.entries.shape != (m, m):
            raise ValueError("entries shape does not match subspace size")
        if not np.allclose(
            self.entries, self.entries.conj().T, atol=HERMITICITY_ATOL
        ):
            raise ValueError("restricted matrix is not Hermitian")


@dataclass(frozen=True)
class RestrictedSolution:
    """Lowest eigenpair of a restricted matrix."""

    energy: float
    coefficients: np.ndarray
    subspace: Subspace

    def __post_init__(self) -> None:
        if self.coefficients.shape != (len(self.subspace),):
            raise ValueError("coefficient length does not match subspace size")
        norm = float(np.linalg.norm(self.coefficients))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"coefficients have norm {norm!r}, expected 1")

    def coefficient(self, state: BasisState) -> complex:
        row = int(self.subspace.positions(state))
        if row < 0:
            raise KeyError(state)
        return self.coefficients[row]


@dataclass(frozen=True, eq=False)
class DominantSupport:
    """States whose probability weight exceeds tau, in the subspace order."""

    states: np.ndarray


def build_restricted(ham: PauliHamiltonian, subspace: Subspace) -> RestrictedMatrix:
    """Assemble H_S by extending the empty restricted matrix."""
    if len(subspace) == 0:
        raise ValueError("subspace is empty")
    dtype = np.float64 if ham.is_real else np.complex128
    empty = RestrictedMatrix(entries=np.zeros((0, 0), dtype=dtype), basis=Subspace(()))
    return extend_restricted(ham, empty, subspace.states)


def extend_restricted(
    ham: PauliHamiltonian, matrix: RestrictedMatrix, new_states
) -> RestrictedMatrix:
    """Grow a restricted matrix in place of a full rebuild.

    The old block is copied verbatim; only the new rows/columns are
    assembled, one batch per x_mask: every new column j gets
    <s_j XOR x_mask|H|s_j> at the row of s_j XOR x_mask, when that state
    is in the subspace, and its Hermitian partner gets the conjugate.
    """
    extended = matrix.basis.extend(new_states)
    old_m, m = len(matrix.basis), len(extended)
    if m == old_m:
        return matrix
    entries = np.zeros((m, m), dtype=matrix.entries.dtype)
    entries[:old_m, :old_m] = matrix.entries
    cols = np.arange(old_m, m)
    new = extended.states[old_m:]
    for x_mask in (0,) + ham.offdiag_masks:
        rows = extended.positions(new ^ x_mask)
        hit = rows >= 0
        i, j = rows[hit], cols[hit]
        values = ham.amplitudes(x_mask, new[hit])
        # The mirror goes first: where both states are new, the column's
        # own amplitude is the one kept.
        entries[j, i] = np.conj(values)
        entries[i, j] = values
    return RestrictedMatrix(entries=entries, basis=extended)


def lowest_eigenpair(matrix: RestrictedMatrix) -> RestrictedSolution:
    """Algebraically smallest eigenpair, residual-verified, phase-fixed."""
    entries = matrix.entries
    m = entries.shape[0]
    if m <= DENSE_SOLVE_MAX:
        vals, vecs = scipy.linalg.eigh(entries, subset_by_index=(0, 0))
        energy, vec = float(vals[0]), vecs[:, 0]
    else:
        sparse = scipy.sparse.csr_matrix(entries)
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(sparse, k=1, which="SA")
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise ConvergenceError(
                "restricted eigensolve did not converge", float("inf")
            ) from exc
        energy, vec = float(vals[0]), vecs[:, 0]
    vec = vec / np.linalg.norm(vec)
    residual = float(np.linalg.norm(entries @ vec - energy * vec))
    bound = 1e-9 * max(1.0, abs(energy))
    if residual > bound:
        raise ConvergenceError(
            f"restricted eigenpair residual exceeds {bound:.1e}", residual
        )
    return RestrictedSolution(
        energy=energy, coefficients=fix_phase(vec), subspace=matrix.basis
    )


def dominant_support(sol: RestrictedSolution, tau: float) -> DominantSupport:
    """States with |c_s|^2 > tau; never empty (falls back to the peak)."""
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must be in [0, 1), got {tau}")
    weights = np.abs(sol.coefficients) ** 2
    picked = sol.subspace.states[weights > tau]
    if len(picked) == 0:
        picked = sol.subspace.states[[int(np.argmax(weights))]]
    return DominantSupport(states=picked)
