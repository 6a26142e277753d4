"""Restricted Hamiltonians on selected basis sets and their ground pairs.

The subspace is an int64 array of distinct basis states in insertion
order, the restricted matrix's order; since those are orthonormal, the
restricted problem is an ordinary (not generalized) Hermitian
eigenproblem H_S c = E_S c.  Entry (i, j) can only be nonzero when
s_i XOR s_j matches some term's x_mask, so H_S has a handful of entries
per column (4.7 at m = 100 to 8.2 at m = 850 on the n = 12 Heisenberg
chain).  It is kept as the m x (G + 1) table of kernel rows, one row per
state (its diagonal, then :meth:`PauliHamiltonian.amplitude_table`),
and a grid of the same shape linking each entry to its row of H_S, or to
-1 outside the basis; each entry is stored once.  The matrix carries
the H it restricts, which only :func:`build_restricted` is handed, and
refuses a basis state outside [0, 2^n) when it is made.  An extension
appends the new states' rows, whose diagonals the caller passes (the
expansion loop has them from scoring), links the old states that step
onto them, and rebuilds nothing.  A :class:`DominantSupport` holds the
solution it was taken from and its rows, refusing a row outside [0, m)
when it is made; its states are the subspace's at those rows.  The
scorer reads its amplitudes from the table through those rows without
evaluating them again.  State lookups sort and compare
(:meth:`Subspace.positions`); none hashes.  The ground pair comes from
:func:`assqd.oracle.hermitian_lowest`, the solver the reference oracle
uses: dense LAPACK on the scattered table up to DENSE_SOLVE_MAX states
(the measured crossover, kept beside that solver), Lanczos beyond on
the CSC matrix the table and its links already are, less the zeros
(:func:`assqd.oracle.linked_arrays`), which would add ±0 to sums scipy
starts at +0 and so move no bit.  Lanczos starts
from the caller's guess, if any, plus a little of a vector drawn with
seed 0, so a repeated solve from the same guess returns the same bits on
either route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from assqd.oracle import DENSE_SOLVE_MAX, hermitian_lowest, linked_arrays, verified_pairs
from assqd.pauli import PauliHamiltonian, in_range

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

    ``ham`` is the H restricted, which the expansion loop reads from here,
    and every basis state lies in [0, 2^ham.n).  ``table`` holds one row
    per basis state s_j, in the subspace order: entry [j, 0] holds
    <s_j|H|s_j> and [j, g + 1] <s_j XOR x|H|s_j> for x =
    ``ham.offdiag_masks[g]``.  ``links`` has the table's shape; entry
    [j, g] is the row of H_S that s_j XOR x is (s_j itself in column 0),
    or -1 where that state is outside the basis.  Entry (links[j, g], j)
    of H_S is table[j, g]; every other entry is zero.  An exact
    cancellation stays a zero in the table, not in :meth:`sparse`.  The
    scorer reads the dominant support's amplitudes from the table by
    position.
    """

    ham: PauliHamiltonian
    basis: Subspace
    table: np.ndarray
    links: np.ndarray

    def __post_init__(self) -> None:
        m = len(self.basis)
        if not in_range(self.ham.n, self.basis.states):
            raise ValueError(f"basis states must lie in [0, 2^{self.ham.n})")
        if self.table.shape != (m, len(self.ham.offdiag_masks) + 1):
            raise ValueError("table must have one row per basis state, one column per mask")
        if self.links.shape != self.table.shape:
            raise ValueError("links must have the table's shape")
        # scipy's sparse constructors do not bound-check their indices, so
        # a link past the basis would reach ARPACK's products unchecked.
        if not np.issubdtype(self.links.dtype, np.integer) or (
            self.links.size and (self.links.min() < -1 or self.links.max() >= m)
        ):
            raise ValueError(f"links must be integers in [-1, {m})")

    def dense(self) -> np.ndarray:
        """The m x m matrix, zero off the linked entries."""
        m = len(self.basis)
        # Row m (index -1) takes the entries whose state is outside the basis.
        out = np.zeros((m + 1, m), dtype=self.table.dtype)
        out[self.links, np.arange(m)[:, None]] = self.table
        return out[:m]

    def sparse(self) -> scipy.sparse.csc_array:
        """The same matrix in CSC form: state j's linked nonzeros are column j."""
        m = len(self.basis)
        return scipy.sparse.csc_array(linked_arrays(self.table, self.links), shape=(m, m))


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


@dataclass(frozen=True, eq=False)
class DominantSupport:
    """Rows of a solution's subspace: the states its expansion steps from.

    ``rows`` holds each state's position in the subspace, the row of the
    restricted matrix's table and the entry of the coefficients that
    belong to it; a row outside [0, m) raises ValueError when the support
    is made, so its states are always the subspace's states at its rows.
    """

    sol: RestrictedSolution
    rows: np.ndarray

    def __post_init__(self) -> None:
        m = len(self.sol.subspace)
        if self.rows.size and (self.rows.min() < 0 or self.rows.max() >= m):
            raise ValueError(f"support rows must lie in [0, {m})")

    @property
    def states(self) -> np.ndarray:
        return self.sol.subspace.states[self.rows]


def build_restricted(ham: PauliHamiltonian, subspace: Subspace) -> RestrictedMatrix:
    """Assemble H_S by extending the empty restricted matrix."""
    if len(subspace) == 0:
        raise ValueError("subspace is empty")
    shape = (0, len(ham.offdiag_masks) + 1)
    empty = RestrictedMatrix(
        ham=ham,
        basis=Subspace(()),
        table=np.zeros(shape, dtype=ham.dtype),
        links=np.zeros(shape, dtype=np.int64),
    )
    return extend_restricted(empty, subspace.states, ham.diagonal(subspace.states))


def extend_restricted(matrix: RestrictedMatrix, new_states, diagonal) -> RestrictedMatrix:
    """Grow a restricted matrix of ``matrix.ham`` in place of a full rebuild.

    ``new_states`` must be distinct and outside the basis (the extended
    :class:`Subspace` raises ValueError otherwise); ``diagonal`` holds
    <s|H|s> for each, which the expansion loop already has from scoring
    them.  Only the new rows are assembled, for every x_mask at once,
    with their links.  An old state that steps onto a new one under some
    x_mask is linked to it under that mask, since XOR is symmetric; its
    table entry was read when it joined.  Each state reads its own
    entries, so every entry (i, j) that involves a new state is checked
    for Hermiticity against (j, i), read from state i's row.
    """
    new = np.asarray(new_states, dtype=np.int64).reshape(-1)
    extended = Subspace(np.concatenate([matrix.basis.states, new]))
    old_m = len(matrix.basis)
    masks = np.array((0,) + matrix.ham.offdiag_masks, dtype=np.int64)
    new_links = extended.positions(new[:, None] ^ masks)
    new_table = np.column_stack([
        np.asarray(diagonal, dtype=np.float64), matrix.ham.amplitude_table(new).T,
    ])
    table = np.concatenate([matrix.table, new_table])
    links = np.concatenate([matrix.links, new_links])
    j, g = np.nonzero(new_links >= 0)
    i = new_links[j, g]
    j += old_m
    old = i < old_m
    links[i[old], g[old]] = j[old]
    # The partner of entry (i, j) is (j, i): state i's entry under the
    # same mask.  np.allclose's bound (its default rtol 1e-5) written out;
    # NaN fails it.
    partner = np.conj(table[i, g])
    bound = HERMITICITY_ATOL + 1e-5 * np.abs(partner)
    if not np.all(np.abs(table[j, g] - partner) <= bound):
        raise ValueError("restricted matrix is not Hermitian")
    return RestrictedMatrix(matrix.ham, extended, table, links)


def lowest_eigenpair(
    matrix: RestrictedMatrix, guess: np.ndarray | None = None
) -> RestrictedSolution:
    """Algebraically smallest eigenpair, residual-verified, phase-fixed.

    ``guess``, one entry per basis state, starts the Lanczos route
    (:func:`assqd.oracle.hermitian_lowest`); the dense route ignores it.
    :func:`assqd.oracle.verified_pairs` checks the pair, with r the
    table's largest absolute row sum, which costs ~1% of a solve and is
    summed only when the residual exceeds 1e-9.
    """
    operator = (
        matrix.dense() if len(matrix.basis) <= DENSE_SOLVE_MAX else matrix.sparse()
    )
    vals, vecs = hermitian_lowest(operator, 1, guess)
    # Row j of the table holds column j of H_S and the entries that leave
    # the basis, so its absolute sum bounds H_S's (Hermitian) row sums.
    (vec,) = verified_pairs(
        lambda x: operator @ x, vals, vecs,
        lambda: float(np.max(np.abs(matrix.table).sum(axis=1))),
    )
    return RestrictedSolution(energy=float(vals[0]), coefficients=vec, matrix=matrix)


def dominant_support(sol: RestrictedSolution, tau: float) -> DominantSupport:
    """States with |c_s|^2 > tau; never empty (falls back to the peak)."""
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must be in [0, 1), got {tau}")
    weights = np.abs(sol.coefficients) ** 2
    rows = np.flatnonzero(weights > tau)
    if len(rows) == 0:
        rows = np.array([int(np.argmax(weights))])
    return DominantSupport(sol, rows)
