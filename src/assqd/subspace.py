"""Restricted Hamiltonians on selected basis sets and their ground pairs.

The subspace is an ordered set of computational basis states; since those
are orthonormal, the restricted problem is an ordinary (not generalized)
Hermitian eigenproblem H_S c = E_S c.  Assembly exploits Pauli sparsity:
entry (i, j) can only be nonzero when s_i XOR s_j matches some term's
x_mask, so each column costs one lookup per distinct mask instead of m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from assqd.oracle import ConvergenceError, fix_phase
from assqd.pauli import BasisState, PauliHamiltonian

# Dense eigensolve up to this subspace size, ARPACK beyond.
DENSE_SOLVE_MAX = 2000

HERMITICITY_ATOL = 1e-12


@dataclass(frozen=True)
class Subspace:
    """Ordered duplicate-free collection of basis states."""

    states: tuple[BasisState, ...]

    def __post_init__(self) -> None:
        if len(set(self.states)) != len(self.states):
            raise ValueError("subspace states must be unique")

    @classmethod
    def from_states(cls, states: Iterable[BasisState]) -> Subspace:
        """Build from an iterable, keeping first-seen order, dropping repeats."""
        seen: dict[BasisState, None] = {}
        for s in states:
            seen.setdefault(int(s), None)
        return cls(tuple(seen))

    @cached_property
    def index(self) -> dict[BasisState, int]:
        return {s: i for i, s in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, state: BasisState) -> bool:
        return state in self.index

    def extend(self, new_states: Sequence[BasisState]) -> Subspace:
        """Append states not already present, preserving both orders."""
        added = [s for s in new_states if s not in self.index]
        return Subspace(self.states + tuple(added))


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
        return self.coefficients[self.subspace.index[state]]


@dataclass(frozen=True)
class DominantSupport:
    """States whose probability weight in the solution exceeds tau."""

    states: tuple[BasisState, ...]
    threshold: float


def build_restricted(ham: PauliHamiltonian, subspace: Subspace) -> RestrictedMatrix:
    """Assemble H_S by extending the empty restricted matrix."""
    if len(subspace) == 0:
        raise ValueError("subspace is empty")
    dtype = np.float64 if ham.is_real else np.complex128
    empty = RestrictedMatrix(entries=np.zeros((0, 0), dtype=dtype), basis=Subspace(()))
    return extend_restricted(ham, empty, subspace.states)


def extend_restricted(
    ham: PauliHamiltonian, matrix: RestrictedMatrix, new_states: Sequence[BasisState]
) -> RestrictedMatrix:
    """Grow a restricted matrix in place of a full rebuild.

    The old block is copied verbatim; only the new rows/columns are
    assembled, column by column over the Hamiltonian's x_masks, and each
    entry found is mirrored into its Hermitian partner.
    """
    extended = matrix.basis.extend(new_states)
    old_m, m = len(matrix.basis), len(extended)
    if m == old_m:
        return matrix
    index = extended.index
    entries = np.zeros((m, m), dtype=matrix.entries.dtype)
    entries[:old_m, :old_m] = matrix.entries
    masks = (0,) + ham.offdiag_masks
    for j in range(old_m, m):
        s_j = extended.states[j]
        for x_mask in masks:
            i = index.get(s_j ^ x_mask)
            if i is not None:
                amp = ham._group_amplitude(x_mask, s_j)
                value = amp.real if ham.is_real else amp
                entries[i, j] = value
                entries[j, i] = np.conj(value)
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
    picked = [s for s, w in zip(sol.subspace.states, weights) if w > tau]
    if not picked:
        picked = [sol.subspace.states[int(np.argmax(weights))]]
    return DominantSupport(states=tuple(picked), threshold=tau)
