"""Restricted Hamiltonians on selected basis sets and their ground pairs.

The subspace is an int64 array of distinct basis states in insertion
order, the restricted matrix's order; since those are orthonormal, the
restricted problem is an ordinary (not generalized) Hermitian
eigenproblem H_S c = E_S c.  Entry (i, j) can only be nonzero when
s_i XOR s_j matches some term's x_mask, so H_S has a handful of entries
per column (4.7 at m = 100 to 8.2 at m = 850 on the n = 12 Heisenberg
chain) and is kept as (row, col, value) triplets: an extension looks up
the new columns' targets under every mask at once, appends the new
states' diagonals, which the caller passes (the expansion loop has them
from scoring), and :meth:`PauliHamiltonian.amplitude_table` entries, and
rebuilds nothing.  The matrix keeps that (G + 1) x m table of kernel
rows by position, so the scorer reads the dominant support's amplitudes
through :attr:`DominantSupport.rows` without evaluating them again.
Set operations on state arrays sort and compare
(:meth:`Subspace.positions`, :meth:`Subspace.fresh`); none hashes.  The
ground pair comes from :func:`assqd.oracle.hermitian_lowest`, the solver
the reference oracle
uses: dense LAPACK on the scattered triplets up to DENSE_SOLVE_MAX
states (the measured crossover, kept beside that solver), seeded Lanczos
on a CSR matrix built from them beyond, so a repeated solve returns the
same bits on either route.
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

    def __contains__(self, state: BasisState) -> bool:
        return bool(self.positions(state) >= 0)

    def fresh(self, states: np.ndarray) -> np.ndarray:
        """Ascending indices of the int64 states that :meth:`extend` appends.

        Those are the states not in the subspace, each value at its first
        occurrence.
        """
        outside = np.flatnonzero(self.positions(states) < 0)
        new = states[outside]
        # A stable sort puts each value's first occurrence ahead of its repeats.
        order = np.argsort(new, kind="stable")
        first = np.ones(len(new), dtype=bool)
        np.not_equal(new[order[1:]], new[order[:-1]], out=first[1:])
        return outside[np.sort(order[first])]

    def extend(self, new_states) -> Subspace:
        """Append states not seen before, keeping first-seen order."""
        new = np.asarray(new_states, dtype=np.int64).reshape(-1)
        return Subspace(np.concatenate([self.states, new[self.fresh(new)]]))


@dataclass(frozen=True, eq=False)
class RestrictedMatrix:
    """H projected onto a subspace, as (row, col, value) triplets.

    value = <s_row|H|s_col> for every entry the x_mask structure can make
    nonzero (an exact cancellation stays as a stored zero); no (row, col)
    pair appears twice.  Rows and columns follow the subspace order.

    ``table`` is the (G + 1) x m table the triplets were read from, one
    column per basis state s in the subspace order: row 0 holds <s|H|s>
    and row g + 1 <s XOR x|H|s> for x = ``offdiag_masks[g]``.  The scorer
    reads the dominant support's amplitudes from it by position.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    basis: Subspace
    table: np.ndarray

    def __post_init__(self) -> None:
        if not len(self.rows) == len(self.cols) == len(self.values):
            raise ValueError("rows, cols and values must have equal lengths")
        if self.table.shape[1:] != (len(self.basis),):
            raise ValueError("table must have one column per basis state")

    def dense(self) -> np.ndarray:
        """The m x m matrix, zero off the stored entries."""
        m = len(self.basis)
        out = np.zeros((m, m), dtype=self.values.dtype)
        out[self.rows, self.cols] = self.values
        return out

    def sparse(self) -> scipy.sparse.csr_array:
        """The same matrix in CSR form, column indices sorted per row."""
        m = len(self.basis)
        return scipy.sparse.csr_array(
            (self.values, (self.rows, self.cols)), shape=(m, m)
        )


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
    no_index = np.zeros(0, dtype=np.int64)
    empty = RestrictedMatrix(
        rows=no_index, cols=no_index, values=np.zeros(0, dtype=ham.dtype),
        basis=Subspace(()),
        table=np.zeros((len(ham.offdiag_masks) + 1, 0), dtype=ham.dtype),
    )
    return extend_restricted(ham, empty, subspace.states, ham.diagonal(subspace.states))


def extend_restricted(
    ham: PauliHamiltonian, matrix: RestrictedMatrix, new_states, diagonal
) -> RestrictedMatrix:
    """Grow a restricted matrix in place of a full rebuild.

    ``diagonal`` holds <s|H|s> for each of ``new_states``, which the
    expansion loop already has from scoring them; states already in the
    basis, and repeats, are skipped with their entries.  The old triplets
    are kept as they are; only the new columns are assembled, for every
    x_mask at once: every new column j gets <s_j XOR x_mask|H|s_j> at the
    row of s_j XOR x_mask, when that state is in the subspace.  An old
    row's entry is mirrored (conjugated) into the new row, which no old
    column saw; an entry between two new states comes from its own column
    on both sides, so the pair is checked for Hermiticity there, the only
    place the two sides are computed apart.
    """
    new_states = np.asarray(new_states, dtype=np.int64).reshape(-1)
    fresh = matrix.basis.fresh(new_states)
    if len(fresh) == 0:
        return matrix
    new = new_states[fresh]
    extended = Subspace(np.concatenate([matrix.basis.states, new]))
    old_m, m = len(matrix.basis), len(extended)
    # One row per x_mask in the order (0,) + offdiag_masks, one column per
    # new state; boolean indexing reads the grids mask by mask.
    masks = np.array((0,) + ham.offdiag_masks, dtype=np.int64)
    rows = extended.positions(new ^ masks[:, None])
    amps = np.concatenate([
        np.asarray(diagonal, dtype=np.float64)[fresh][None],
        ham.amplitude_table(new),
    ])
    hit = rows >= 0
    i, values = rows[hit], amps[hit]
    j = np.broadcast_to(np.arange(old_m, m), rows.shape)[hit]
    old = i < old_m
    # Between two new states, (i, j) and its partner (j, i) are both here:
    # s_i = s_j XOR x_mask, so column i found row j through the same mask.
    inner_i, inner_j, inner = i[~old], j[~old], values[~old]
    key = inner_i * m + inner_j
    order = np.argsort(key)
    partner = order[np.searchsorted(key, inner_j * m + inner_i, sorter=order)]
    mirror = np.conj(inner[partner])
    # np.allclose's bound (its default rtol 1e-5) written out; NaN fails it.
    bound = HERMITICITY_ATOL + 1e-5 * np.abs(mirror)
    if not np.all(np.abs(inner - mirror) <= bound):
        raise ValueError("restricted matrix is not Hermitian")
    return RestrictedMatrix(
        rows=np.concatenate([matrix.rows, i, j[old]]),
        cols=np.concatenate([matrix.cols, j, i[old]]),
        values=np.concatenate([matrix.values, values, np.conj(values[old])]),
        basis=extended,
        table=np.concatenate([matrix.table, amps], axis=1),
    )


def lowest_eigenpair(matrix: RestrictedMatrix) -> RestrictedSolution:
    """Algebraically smallest eigenpair, residual-verified, phase-fixed."""
    operator = (
        matrix.dense() if len(matrix.basis) <= DENSE_SOLVE_MAX else matrix.sparse()
    )
    vals, vecs = hermitian_lowest(operator, 1)
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
