"""Reference eigenpairs of the full Hamiltonian, and the one eigensolver.

:func:`hermitian_lowest` gives the lowest eigenpairs of a Hermitian
matrix, dense LAPACK for a dense array and seeded ARPACK Lanczos for a
sparse one; the restricted solve of the expansion loop
(:func:`assqd.subspace.lowest_eigenpair`) calls it too, and both pick the
dense form up to DENSE_SOLVE_MAX = 250 states.  ARPACK stops once every
Ritz estimate is at most RESIDUAL_TOL / ARPACK_TOL_DIVISOR, a tenth of the
residual the callers verify, not at machine precision.

:func:`exact_lowest` restricts H to blocks and diagonalises each, with
the one solver over blocks, :func:`_lowest_over_blocks`, which solves a
block densely up to DENSE_SOLVE_MAX states and with ARPACK above that:

- from SECTOR_MIN_QUBITS = 14 (see the table there), when H conserves
  popcount (Heisenberg with Z fields): one CSR block per popcount sector
  (:func:`popcount_sectors`), each solved on its own and the pairs merged,
  so the largest matrix at n = 16 has C(16, 8) = 12870 rows, not 65536.
  The blocks are solved in ascending order of their Gershgorin floor, a
  lower bound on their eigenvalues, the first for count pairs at once and
  the rest for one; once count pairs are in hand, a block whose floor lies
  above the count-th lowest of them cannot hold a wanted pair, and it and
  every block after it are skipped.  A block whose Gershgorin floor falls
  short is skipped alone when a tighter Collatz-Wielandt floor
  (:func:`_weighted_floor`) clears that cut.  Heisenberg at n = 16
  (disorder seeds 0-5) makes 3 solves of its 17 sectors at count 2 and 7
  at count 8, where the Gershgorin floor alone, with every sector solved
  once before any is deepened, makes 6-8 and 12;
- otherwise, up to ORACLE_MAX_QUBITS = 20: one block, H built once as one
  CSR matrix over all 2^n states (:func:`sparse_matrix`), solved for
  count pairs at once.

Both CSR forms read their entries from the expansion loop's own kernel,
:meth:`PauliHamiltonian.diagonal` and
:meth:`PauliHamiltonian.amplitude_table`, through :func:`_csr_block`,
which is also the symmetry detector: a nonzero entry that leaves its
sector sends H to the one block, so an H with a transverse field (TFIM)
is caught at sector 0.  ``exact_lowest(method="lanczos")`` keeps H in one
block at any size: the benchmark asks for it and tests compare the two
splits, while the command line always takes the one the size and H pick.
Every returned pair, sector pairs scattered back to 2^n vectors
included, is verified against the residual bound
``norm(H psi - E psi) <= RESIDUAL_TOL`` (1e-9) through
:func:`apply_hamiltonian`, a term-by-term product on the full vectors
(all pairs in one call) that shares no code with the CSR builder or that
kernel, so neither a silent misconvergence nor a wrong matrix entry can
leak into benchmark baselines.  The result is an :class:`EigenpairSet`,
which derives e0, e1 and the degeneracy flag (E1 - E0 < DEGENERACY_GAP)
from its energies; the sweeps, ``assqd oracle`` and the trace records of
``assqd run`` and ``assqd ingest`` all read them from it.
:func:`save_eigenpairs` writes the pairs of ``assqd oracle --pairs`` to
an .npz; the package never reads one back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from assqd.pauli import KERNEL_BLOCK, PauliHamiltonian, PauliTerm

ORACLE_MAX_QUBITS = 20

DEGENERACY_GAP = 1e-8

# Largest residual norm(H psi - E psi) accepted for a returned eigenpair.
RESIDUAL_TOL = 1e-9

# Iteration cap for the Lanczos route, in ARPACK restart cycles.
LANCZOS_MAXITER = 20_000

# ARPACK stops once each Ritz estimate is at most tol * |theta| (ARPACK
# Users' Guide, Lehoucq, Sorensen & Yang, 1998), and no |theta| exceeds
# the largest absolute row sum r, so tol = RESIDUAL_TOL / (divisor * r)
# puts every estimated residual at or below RESIDUAL_TOL / divisor.
# Measured on 13 solves (CPU ms summed over medians of 7, one BLAS thread;
# Heisenberg n = 16 sectors 7 and 9 for one pair and sector 8 for two, at
# disorder seeds 0-2, and Heisenberg and TFIM n = 12 and 14 on the one CSR
# matrix for two pairs), with the worst true residual norm(A v - theta v):
#
#   tol                    summed ms    worst residual
#   0 (machine precision)     767           8e-14
#   divisor 10                637           4e-11
#   divisor 30                686           2e-11
#   divisor 100               706           6e-12
#
# At 10 the worst true residual is still 25 times below RESIDUAL_TOL.
ARPACK_TOL_DIVISOR = 10

# Smallest n whose default route splits a popcount-conserving H into its
# sectors.  Measured per solve (CPU ms, median of 5, 3 from n = 15, one
# BLAS thread, Heisenberg disorder seeds 0-2, ARPACK at scipy's default
# Krylov size and ARPACK_TOL_DIVISOR; full CSR route / sector route with
# both floors and the first sector solved for count pairs):
#
#   n          count 2                count 8
#   9        5-7   / 7-9           10-12   /  12-14
#   10       8-9   / 14-17           13    /  28-29
#   11        14   / 15            21-30   /  38-39
#   12      25-32  / 21-25         40-45   /  50-53
#   13      39-45  / 30-31         84-121  /  77-88
#   14      94-128 / 63-66        182-190  / 118-137
#   15     237-312 / 103-154      402-571  / 282-357
#   16     731-866 / 241-276     1119-1156 / 563-609
#
# Below n = 12 the fixed cost of one ARPACK solve per sector outweighs
# what the smaller solves save.  The sector route also wins at n = 13
# (2 solves at count 2, where the Gershgorin floor alone made 5-6) and at
# n = 12, count 2, as does Heisenberg plus a complex XY - YX bond (count
# 2: 79-96 / 55-76 ms at n = 13, 209-313 / 123-133 at 14).  The limit
# stays at 14: moving it moves the last bits of E0 and E1 at n = 12-13.
SECTOR_MIN_QUBITS = 14

# Dense eigensolve up to this matrix order, seeded CSR Lanczos beyond.
# Measured per solve (CPU ms on an Intel Xeon, one OpenBLAS thread, median
# over three runs of a median of 9, on prefixes of the expand-wide subspace
# of seed 0; dense route / sparse route at scipy's default Krylov size and
# ARPACK_TOL_DIVISOR):
#
#   m                        100        150        200        250        300        850
#   Heisenberg n = 12     0.6 / 1.8  1.3 / 2.3  2.1 / 2.3  3.4 / 2.5  4.9 / 3.0  70 / 4.2
#   TFIM n = 14           0.6 / 1.8  1.3 / 2.3  2.1 / 2.3  3.4 / 2.4  4.9 / 2.5  70 / 4.1
#   Heisenberg + Y0       1.4 / 3.7  3.7 / 3.9  7.3 / 3.9   12 / 4.2   20 / 5.5 349 / 7.9
#
# Real matrices cross over between 200 and 250 states.  Complex (odd-Y)
# ones now tie at 150 (between 150 and 200 at tol = 0).  The limit stays at
# 250: there the real routes differ by about a millisecond, and moving it
# moves the last bits of E_est on every run whose subspace passes through
# the new range.
DENSE_SOLVE_MAX = 250

# Power steps of the Collatz-Wielandt sector floor (_weighted_floor).
# Measured on Heisenberg n = 16, disorder seeds 0-5 (one BLAS thread;
# solves per oracle call, and the CPU time spent on the bound):
#
#   steps      count 2              count 8
#   none     5-7 solves            9 solves
#   10       3-5,  12-14 ms        7,  14-15 ms
#   20       3,    17-20 ms        7,  20-24 ms
#   30       3,    19-23 ms        5-7, 21-33 ms
#   40       3,    19-27 ms        5-6, 25-32 ms
#
# Interleaved medians over the six seeds: count 2 took 211, 216 and 220
# ms at 20, 30 and 40 steps, count 8 508, 499 and 485 ms.  Count 2 is the
# one every sweep uses.
FLOOR_STEPS = 20


class ConvergenceError(RuntimeError):
    """Eigensolve failed the residual bound; carries the worst residual."""

    def __init__(self, message: str, achieved_residual: float):
        super().__init__(f"{message} (achieved residual {achieved_residual:.3e})")
        self.achieved_residual = achieved_residual


@dataclass(frozen=True)
class EigenpairSet:
    """Lowest eigenpairs in ascending order, residual-verified."""

    energies: tuple[float, ...]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        if list(self.energies) != sorted(self.energies):
            raise ValueError("energies must be ascending")
        if self.vectors.shape[1] != len(self.energies):
            raise ValueError("one vector column per energy required")
        norms = np.linalg.norm(self.vectors, axis=0)
        if not np.all(np.abs(norms - 1.0) <= 1e-10):
            raise ValueError("eigenvectors must be normalized")

    @property
    def e0(self) -> float:
        return self.energies[0]

    @property
    def e1(self) -> float:
        return self.energies[1]

    @property
    def degenerate_ground(self) -> bool:
        """Whether E1 lies within DEGENERACY_GAP of E0."""
        return self.energies[1] - self.energies[0] < DEGENERACY_GAP

    @property
    def psi0(self) -> np.ndarray:
        return self.vectors[:, 0]

    @property
    def psi1(self) -> np.ndarray:
        return self.vectors[:, 1]


def apply_hamiltonian(ham: PauliHamiltonian, v: np.ndarray) -> np.ndarray:
    """H @ v without materializing H: one XOR-gather per distinct x_mask.

    ``v`` is one vector of 2^n entries or a (2^n, k) block of k column
    vectors, and the result has its shape.  The terms of ``ham.terms`` are
    grouped by x_mask here, and each mask's terms are summed into one
    amplitude per source state i ^ x_mask (signed by that source state)
    before the gather, so the residual check shares no code with the CSR
    builder or the Pauli kernel behind it.  Each amplitude is formed once
    and applied to the columns in turn, so every column gets the bits of
    a call on that column alone (one broadcast product over the block was
    slower).
    """
    v = np.asarray(v)
    dim = 1 << ham.n
    if v.shape[:1] != (dim,) or v.ndim > 2:
        raise ValueError(f"expected vector of dimension {dim}, got shape {v.shape}")
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


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude amplitude is real and positive."""
    pivot = vec[int(np.argmax(np.abs(vec)))]
    scale = abs(pivot)
    if scale == 0.0:
        return vec
    rotated = vec * (np.conj(pivot) / scale)
    return rotated.real if np.all(np.abs(rotated.imag) <= 1e-12) else rotated


def _magnitude(matrix: scipy.sparse.csr_array) -> scipy.sparse.csr_array:
    """|A| entrywise: ``abs(data)`` on A's own ``indices`` and ``indptr``.

    Anything that brings A to canonical form (``abs(A)``, a sum over an
    axis) sorts A's ``indices`` in place, and A's products, summed in the
    new order, change their last bits; this shares them and reorders
    nothing.
    """
    return scipy.sparse.csr_array(
        (np.abs(matrix.data), matrix.indices, matrix.indptr), shape=matrix.shape
    )


def hermitian_lowest(
    matrix: np.ndarray | scipy.sparse.sparray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest count eigenpairs of a Hermitian matrix, ascending.

    A dense array goes to LAPACK (``scipy.linalg.eigh``); a sparse one to
    implicitly-restarted Lanczos (ARPACK ``eigsh``) from a start vector
    drawn with seed 0, so a repeated call returns the same bits whatever
    ran before it.  The Krylov basis is scipy's default size,
    min(dim, max(2 count + 1, 20)): most of a solve is ARPACK's own work
    on its basis, and twice as many vectors cost more per restart than
    the restarts they save (a count-2 Heisenberg solve at n = 16 took
    0.58-0.66 s with 40 vectors, 0.42-0.47 s with 20).  ARPACK stops at
    tol = RESIDUAL_TOL / (ARPACK_TOL_DIVISOR r), r the largest absolute
    row sum of the matrix, so every Ritz estimate ends at or below
    RESIDUAL_TOL / ARPACK_TOL_DIVISOR: inside :func:`exact_lowest`'s bound
    RESIDUAL_TOL and :func:`assqd.subspace.lowest_eigenpair`'s
    1e-9 max(1, |E|), without the restarts that tol = 0 (machine
    precision) spends on digits neither reads.  The pairs are not
    residual-checked here; callers check them against their own bound.
    """
    if not scipy.sparse.issparse(matrix):
        return scipy.linalg.eigh(matrix, subset_by_index=(0, count - 1))
    dim = matrix.shape[0]
    # ARPACK stops with "starting vector is zero" when A v0 = 0; every
    # vector is an eigenvector of the zero matrix.  (count_nonzero would
    # sort the caller's indices in place, which moves the product's bits.)
    if not matrix.data.any():
        return np.zeros(count), np.eye(dim, count, dtype=matrix.dtype)
    radius = float(np.max(_magnitude(matrix) @ np.ones(dim)))
    v0 = np.random.default_rng(0).standard_normal(dim)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            matrix, k=count, which="SA", v0=v0, maxiter=LANCZOS_MAXITER,
            tol=RESIDUAL_TOL / (ARPACK_TOL_DIVISOR * radius),
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        if len(exc.eigenvalues) == 0:
            raise ConvergenceError(
                f"Lanczos found no eigenpairs within {LANCZOS_MAXITER} restarts",
                float("inf"),
            ) from exc
        worst = max(
            float(np.linalg.norm(matrix @ vec - val * vec))
            for val, vec in zip(exc.eigenvalues, exc.eigenvectors.T)
        )
        raise ConvergenceError(
            f"Lanczos converged only {len(exc.eigenvalues)}/{count} pairs "
            f"within {LANCZOS_MAXITER} restarts",
            worst,
        ) from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _csr_block(
    ham: PauliHamiltonian, states: np.ndarray, column: np.ndarray
) -> scipy.sparse.csr_array | None:
    """The rows of H at ``states`` as a CSR matrix, or None if H leaves them.

    ``column`` gives every one of the 2^n basis states its int32 column,
    -1 for a state outside the block.  Row r holds one entry per mask x in
    (0,) + ``offdiag_masks``, in that order, at column
    ``column[states[r] ^ x]``.  The diagonal comes from
    :meth:`PauliHamiltonian.diagonal` and the rest from
    :meth:`PauliHamiltonian.amplitude_table` at the row state, because H
    is Hermitian and so <s|H|s^x> = conj(<s^x|H|s>); a real table is
    stored as it is, without a conjugated copy.  The rows are filled in
    passes of at most KERNEL_BLOCK table entries, so no table larger than
    one pass is made.  A nonzero entry in a -1 column means H couples the
    block to a state outside it, and the result is None; otherwise the -1
    columns, whose entries are all zero, are set to 0 in place.  Entries
    that cancel exactly are then dropped in place; they include the whole
    diagonal of an H without diagonal terms.
    """
    masks = np.array((0,) + ham.offdiag_masks, dtype=np.int64)
    width = len(masks)
    size = len(states)
    if size * width > np.iinfo(np.int32).max:
        raise ValueError(f"{size * width} entries exceed int32 CSR indexing")
    data = np.empty((size, width), dtype=ham.dtype)
    indices = np.empty((size, width), dtype=np.int32)
    step = max(1, KERNEL_BLOCK // width)
    for start in range(0, size, step):
        rows = slice(start, start + step)
        chunk = states[rows]
        data[rows, 0] = ham.diagonal(chunk)
        table = ham.amplitude_table(chunk).T
        data[rows, 1:] = table if ham.is_real else np.conj(table)
        indices[rows] = column[chunk[:, None] ^ masks]
    if np.logical_and(indices < 0, data != 0).any():
        return None
    np.maximum(indices, 0, out=indices)
    indptr = np.arange(size + 1, dtype=np.int32) * np.int32(width)
    matrix = scipy.sparse.csr_array(
        (data.reshape(-1), indices.reshape(-1), indptr), shape=(size, size)
    )
    matrix.eliminate_zeros()
    return matrix


def sparse_matrix(ham: PauliHamiltonian) -> scipy.sparse.csr_array:
    """H as one CSR matrix over all 2^n states, row and column i for state i.

    This is :func:`_csr_block` on every state in ascending order.  Real
    values take 8 bytes and ``int32`` column indices 4, so before the drop
    of cancelled entries the matrix holds (G + 1) * 2^n * 12 bytes for G
    off-diagonal masks: ~13 MB for Heisenberg at n = 16 (G = 16), where
    XX + YY cancel on aligned neighbours and 9 entries per row remain.
    """
    if ham.n > ORACLE_MAX_QUBITS:
        raise ValueError(
            f"sparse matrix limited to n <= {ORACLE_MAX_QUBITS}, got {ham.n}"
        )
    states = np.arange(1 << ham.n, dtype=np.int64)
    return _csr_block(ham, states, states.astype(np.int32))


def popcount_sectors(
    ham: PauliHamiltonian,
) -> list[tuple[np.ndarray, scipy.sparse.csr_array]] | None:
    """H's diagonal blocks on the popcount sectors, or None if H mixes them.

    Sector w holds the C(n, w) states of popcount w, ascending, and its
    block is H on them in that order (:func:`_csr_block`).  The blocks are
    built from w = 0 up, and the first nonzero entry that leaves its
    sector stops the build: an H with a transverse field leaves sector 0,
    whose one state is |0...0>, at once.
    """
    dim = 1 << ham.n
    popcount = np.bitwise_count(np.arange(dim, dtype=np.int64))
    # A stable sort keeps each sector's states ascending, and sector w
    # holds the next C(n, w) of them.
    sizes = [math.comb(ham.n, w) for w in range(ham.n)]
    sectors = np.split(np.argsort(popcount, kind="stable"), np.cumsum(sizes))
    column = np.full(dim, -1, dtype=np.int32)
    blocks = []
    for states in sectors:
        column[states] = np.arange(len(states), dtype=np.int32)
        block = _csr_block(ham, states, column)
        if block is None:
            return None
        column[states] = -1
        blocks.append((states, block))
    return blocks


def _weighted_floor(block: scipy.sparse.csr_array, steps: int, cut: float) -> float:
    """A Collatz-Wielandt lower bound on every eigenvalue of the block.

    With M = Re diag(H) - |offdiag(H)|, every vector v has v^H H v >=
    |v|^T M |v|, so H's lowest eigenvalue is at least M's, which for every
    positive x is at least min_i (M x)_i / x_i; this holds for a complex H
    too.  At x = 1 the bound is the Gershgorin floor, min_i(Re H_ii -
    sum_{j != i} |H_ij|).  Each of at most ``steps`` power steps replaces x
    by (c I - M) x, scaled to a largest entry of 1, where c = max_i Re H_ii
    + max_i sum_{j != i} |H_ij| leaves c I - M no negative entry, and draws
    x towards M's lowest eigenvector, where the bound meets M's lowest
    eigenvalue.  The steps stop once the bound exceeds ``cut``, or when x
    stops being positive (a state at c that no entry couples to).  The
    largest bound met is returned.

    |H| is :func:`_magnitude` of the block.  The diagonal comes from
    ``block.diagonal()``, which reads ``indices`` in place: a row's first
    stored entry is its diagonal only when that is nonzero, since
    :func:`_csr_block` drops cancelled entries.
    """
    magnitude = _magnitude(block)
    diagonal = block.diagonal()
    own = diagonal.real + np.abs(diagonal)
    x = np.ones(block.shape[0])
    product = magnitude @ x
    floor = float(np.min(own - product))
    # (c I - M) x = (c - own) x + |H| x, as |H| x holds |H_ii| x_i.
    rest = np.max(diagonal.real) + np.max(product - np.abs(diagonal)) - own
    for _ in range(steps):
        if floor > cut:
            break
        x = rest * x + product
        if not np.all(x > 0.0):
            break
        x /= np.max(x)
        product = magnitude @ x
        floor = max(floor, float(np.min(own - product / x)))
    return floor


def _lowest_over_blocks(
    blocks: list[tuple[np.ndarray, scipy.sparse.csr_array]], count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest count eigenpairs of a block-diagonal H, scattered to 2^n vectors.

    Blocks are taken in ascending order of their Gershgorin floor
    (:func:`_weighted_floor` with no steps), ties by block; a lone block
    has nothing to rank or skip, and no floor is formed.  The first
    gives its lowest min(count, size) pairs, each later one its lowest
    pair.  Once count pairs are in hand, a block with no eigenvalue at or
    below the count-th lowest of them (plus RESIDUAL_TOL, for rounding)
    cannot hold a wanted pair: when its Gershgorin floor lies above that
    cut, it and every block after it are skipped, and when the bound of
    FLOOR_STEPS power steps does, it alone is.

    The solved pairs are ranked by energy, ties by block.  The eigenvalues
    a block has not given yet rank after its deepest solved pair, so they
    can reach the lowest count only when that pair ranks among the lowest
    count - 1.  While some block's does, the one ranked first is solved
    again, deep enough to fill the ranks below its deepest pair, and the
    pairs are ranked again.  Had every block given one pair first, the
    loop would begin by solving the first block again at depth min(count,
    size) whenever its pair ranks first, so solving it there at once
    saves a solve and reaches the same state.  When another block's lowest
    energy lies within RESIDUAL_TOL of its lowest, the first block is
    solved again at depth 1 before the loop, which restores that state.  A
    skipped block's pairs would all rank at count or later, so the result
    is the one that solving every block gives, to the bit.  Blocks of at
    most DENSE_SOLVE_MAX states are solved densely.
    """

    def solve(w: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
        states, block = blocks[w]
        matrix = block.toarray() if len(states) <= DENSE_SOLVE_MAX else block
        return hermitian_lowest(matrix, min(depth, len(states)))

    floors = [0.0] if len(blocks) == 1 else [
        _weighted_floor(block, 0, np.inf) for _, block in blocks
    ]
    lead, *rest = sorted(range(len(blocks)), key=floors.__getitem__)
    solved = {lead: solve(lead, count)}
    for w in rest:
        energies = np.sort(np.concatenate([vals for vals, _ in solved.values()]))
        if len(energies) >= count:
            cut = energies[count - 1] + RESIDUAL_TOL
            if floors[w] > cut:
                break
            if _weighted_floor(blocks[w][1], FLOOR_STEPS, cut) > cut:
                continue
        solved[w] = solve(w, 1)
    ground = solved[lead][0][0]
    if len(solved[lead][0]) > 1 and any(
        vals[0] <= ground + RESIDUAL_TOL for w, (vals, _) in solved.items() if w != lead
    ):
        solved[lead] = solve(lead, 1)
    live = sorted(solved)
    while True:
        depth = np.array([len(solved[w][0]) for w in live])
        slot = np.repeat(np.arange(len(live)), depth)
        energies = np.concatenate([solved[w][0] for w in live])
        order = np.lexsort((np.array(live)[slot], energies))
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        deepest = rank[np.cumsum(depth) - 1]
        short = [
            i for i, w in enumerate(live)
            if deepest[i] < count - 1 and depth[i] < len(blocks[w][0])
        ]
        if not short:
            break
        i = min(short, key=lambda i: deepest[i])
        w = live[i]
        solved[w] = solve(w, depth[i] + count - 1 - int(deepest[i]))
    first = np.cumsum(depth) - depth
    dim = sum(len(states) for states, _ in blocks)
    vecs = np.zeros((dim, count), dtype=blocks[0][1].dtype)
    for col, at in enumerate(order[:count]):
        i = slot[at]
        vecs[blocks[live[i]][0], col] = solved[live[i]][1][:, at - first[i]]
    return energies[order[:count]], vecs


def exact_lowest(
    ham: PauliHamiltonian,
    count: int = 2,
    method: str | None = None,
) -> EigenpairSet:
    """Residual-verified lowest eigenpairs of the full Hamiltonian.

    From SECTOR_MIN_QUBITS up an H that conserves popcount is solved sector
    by sector (:func:`popcount_sectors`); every other size and H, and
    method="lanczos" at any size, is one block, the one CSR matrix.  Either
    way :func:`_lowest_over_blocks` solves the blocks.
    """
    if ham.n > ORACLE_MAX_QUBITS:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_QUBITS}, got {ham.n}")
    if not 2 <= count <= 8:
        raise ValueError(f"count must be in [2, 8], got {count}")
    if count > (1 << ham.n):
        raise ValueError(f"count {count} too large for dimension {1 << ham.n}")
    if method not in (None, "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    blocks = None
    if method is None and ham.n >= SECTOR_MIN_QUBITS:
        blocks = popcount_sectors(ham)
    if blocks is None:
        blocks = [(np.arange(1 << ham.n), sparse_matrix(ham))]
    vals, vecs = _lowest_over_blocks(blocks, count)
    del blocks  # freed before the residual check's 2^n-long work arrays

    unit = np.column_stack([vecs[:, i] / np.linalg.norm(vecs[:, i]) for i in range(count)])
    residuals = np.linalg.norm(apply_hamiltonian(ham, unit) - unit * vals, axis=0)
    worst = float(np.max(residuals))
    if not worst <= RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigensolve exceeded residual tolerance {RESIDUAL_TOL:.1e}",
            worst,
        )
    return EigenpairSet(
        energies=tuple(float(v) for v in vals),
        vectors=np.column_stack([fix_phase(vec) for vec in unit.T]),
    )


def save_eigenpairs(path, pairs: EigenpairSet) -> None:
    """Write energies, vectors and the degeneracy flag to an .npz file."""
    np.savez_compressed(
        path,
        energies=np.array(pairs.energies),
        vectors=pairs.vectors,
        degenerate_ground=np.array(pairs.degenerate_ground),
    )
