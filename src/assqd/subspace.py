"""Restricted Hamiltonians on selected basis sets and their ground pairs.

The subspace is an int64 array of distinct basis states in insertion
order, the restricted matrix's order; since those are orthonormal, the
restricted problem is an ordinary (not generalized) Hermitian
eigenproblem H_S c = E_S c.  Entry (i, j) can only be nonzero when
s_i XOR s_j matches some term's x_mask, so H_S has a handful of entries
per column (4.7 at m = 100 to 8.2 at m = 850 on the n = 12 Heisenberg
chain).  It is kept as the (G + 1) x m table of kernel rows, one column
per state (its diagonal, then :meth:`PauliHamiltonian.amplitude_table`),
and a grid of the same shape linking each entry to its row, or to -1
outside the basis; each entry is stored once.  An extension appends the
new states' columns, whose diagonals the caller passes (the expansion
loop has them from scoring), links the old columns that step onto them,
and rebuilds nothing.  The scorer reads the dominant support's
amplitudes from the table through :attr:`DominantSupport.rows` without
evaluating them again.  State lookups sort and compare
(:meth:`Subspace.positions`); none hashes.  The ground pair comes from
:func:`assqd.oracle.hermitian_lowest`, the solver the reference oracle
uses: dense LAPACK on the scattered table up to DENSE_SOLVE_MAX states
(the measured crossover, kept beside that solver), Lanczos on a CSR
matrix built from it beyond.  Lanczos starts from the caller's guess, if
any, plus a little of a vector drawn with seed 0, so a repeated solve
from the same guess returns the same bits on either route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from assqd.oracle import (
    DENSE_SOLVE_MAX,
    ConvergenceError,
    fix_phase,
    hermitian_lowest,
)
from assqd.pauli import BasisState, PauliHamiltonian

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


@dataclass(frozen=True, eq=False)
class RestrictedMatrix:
    """H projected onto a subspace, as an amplitude table and its row links.

    ``table`` holds one column per basis state s_j, in the subspace order:
    row 0 holds <s_j|H|s_j> and row g + 1 <s_j XOR x|H|s_j> for
    x = ``offdiag_masks[g]``.  ``links`` has the table's shape; entry
    [g, j] is the row of s_j XOR x (s_j itself in row 0), or -1 where that
    state is outside the basis.  Entry (links[g, j], j) of H_S is
    table[g, j]; every other entry is zero, and an exact cancellation
    stays a stored zero.  The scorer reads the dominant support's
    amplitudes from the table by position.
    """

    basis: Subspace
    table: np.ndarray
    links: np.ndarray

    def __post_init__(self) -> None:
        if self.table.shape[1:] != (len(self.basis),):
            raise ValueError("table must have one column per basis state")
        if self.links.shape != self.table.shape:
            raise ValueError("links must have the table's shape")

    def dense(self) -> np.ndarray:
        """The m x m matrix, zero off the linked entries."""
        m = len(self.basis)
        # Row m (index -1) takes the entries whose state is outside the basis.
        out = np.zeros((m + 1, m), dtype=self.table.dtype)
        out[self.links, np.arange(m)] = self.table
        return out[:m]

    def sparse(self) -> scipy.sparse.csr_array:
        """The same matrix in CSR form, column indices sorted per row."""
        m = len(self.basis)
        # Column by column, the linked entries are the CSC arrays; turning
        # those into CSR leaves each row's columns ascending with no sort.
        hit = (self.links >= 0).T
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(hit.sum(axis=1), out=indptr[1:])
        return scipy.sparse.csc_array(
            (self.table.T[hit], self.links.T[hit], indptr), shape=(m, m)
        ).tocsr()


@dataclass(frozen=True)
class RestrictedSolution:
    """Lowest eigenpair of a restricted matrix, kept beside the matrix."""

    energy: float
    coefficients: np.ndarray
    matrix: RestrictedMatrix

    @property
    def subspace(self) -> Subspace:
        return self.matrix.basis

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
    """States whose probability weight exceeds tau, in the subspace order.

    ``rows`` holds each state's position in the subspace, the column of the
    restricted matrix's table and the entry of the coefficients that
    belong to it.
    """

    states: np.ndarray
    rows: np.ndarray


def build_restricted(ham: PauliHamiltonian, subspace: Subspace) -> RestrictedMatrix:
    """Assemble H_S by extending the empty restricted matrix."""
    if len(subspace) == 0:
        raise ValueError("subspace is empty")
    shape = (len(ham.offdiag_masks) + 1, 0)
    empty = RestrictedMatrix(
        basis=Subspace(()),
        table=np.zeros(shape, dtype=ham.dtype),
        links=np.zeros(shape, dtype=np.int64),
    )
    return extend_restricted(ham, empty, subspace.states, ham.diagonal(subspace.states))


def extend_restricted(
    ham: PauliHamiltonian, matrix: RestrictedMatrix, new_states, diagonal
) -> RestrictedMatrix:
    """Grow a restricted matrix in place of a full rebuild.

    ``new_states`` must be distinct and outside the basis (the extended
    :class:`Subspace` raises ValueError otherwise); ``diagonal`` holds
    <s|H|s> for each, which the expansion loop already has from scoring
    them.  Only the new columns are assembled, for every x_mask at once,
    with their links.  An old column whose state steps onto a new one
    under some x_mask is linked to it under that mask, since XOR is
    symmetric; its table entry was read when it joined.  Each column
    reads its own entries, so every entry (i, j) that involves a new
    state is checked for Hermiticity against (j, i), read by column i.
    """
    new = np.asarray(new_states, dtype=np.int64).reshape(-1)
    extended = Subspace(np.concatenate([matrix.basis.states, new]))
    old_m = len(matrix.basis)
    masks = np.array((0,) + ham.offdiag_masks, dtype=np.int64)
    new_links = extended.positions(new ^ masks[:, None])
    new_table = np.concatenate([
        np.asarray(diagonal, dtype=np.float64)[None], ham.amplitude_table(new),
    ])
    table = np.concatenate([matrix.table, new_table], axis=1)
    links = np.concatenate([matrix.links, new_links], axis=1)
    g, j = np.nonzero(new_links >= 0)
    i = new_links[g, j]
    j += old_m
    old = i < old_m
    links[g[old], i[old]] = j[old]
    # The partner of entry (i, j) is (j, i): column i's entry under the
    # same mask.  np.allclose's bound (its default rtol 1e-5) written out;
    # NaN fails it.
    partner = np.conj(table[g, i])
    bound = HERMITICITY_ATOL + 1e-5 * np.abs(partner)
    if not np.all(np.abs(table[g, j] - partner) <= bound):
        raise ValueError("restricted matrix is not Hermitian")
    return RestrictedMatrix(basis=extended, table=table, links=links)


def lowest_eigenpair(
    matrix: RestrictedMatrix, guess: np.ndarray | None = None
) -> RestrictedSolution:
    """Algebraically smallest eigenpair, residual-verified, phase-fixed.

    ``guess``, one entry per basis state, starts the Lanczos route
    (:func:`assqd.oracle.hermitian_lowest`); the dense route ignores it.
    """
    operator = (
        matrix.dense() if len(matrix.basis) <= DENSE_SOLVE_MAX else matrix.sparse()
    )
    vals, vecs = hermitian_lowest(operator, 1, guess)
    energy, vec = float(vals[0]), vecs[:, 0]
    vec = vec / np.linalg.norm(vec)
    residual = float(np.linalg.norm(operator @ vec - energy * vec))
    bound = 1e-9 * max(1.0, abs(energy))
    if residual > bound:
        raise ConvergenceError(
            f"restricted eigenpair residual exceeds {bound:.1e}", residual
        )
    return RestrictedSolution(energy=energy, coefficients=fix_phase(vec), matrix=matrix)


def dominant_support(sol: RestrictedSolution, tau: float) -> DominantSupport:
    """States with |c_s|^2 > tau; never empty (falls back to the peak)."""
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must be in [0, 1), got {tau}")
    weights = np.abs(sol.coefficients) ** 2
    rows = np.flatnonzero(weights > tau)
    if len(rows) == 0:
        rows = np.array([int(np.argmax(weights))])
    return DominantSupport(states=sol.subspace.states[rows], rows=rows)
