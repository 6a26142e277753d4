"""Reference eigenpairs of the full Hamiltonian, and the one eigensolver.

:func:`hermitian_lowest` gives the lowest eigenpairs of a Hermitian
matrix, dense LAPACK for a dense array and seeded ARPACK Lanczos for a
sparse one; the restricted solve of the expansion loop
(:func:`assqd.subspace.lowest_eigenpair`) calls it too, and both pick the
dense form up to DENSE_SOLVE_MAX = 250 states.  The oracle has three
routes, chosen by size and symmetry, each measured (see the tables at
DEFAULT_DENSE_MAX_QUBITS and SECTOR_MIN_QUBITS):

- n <= DEFAULT_DENSE_MAX_QUBITS = 8: the dense matrix, where ARPACK's
  set-up costs more than the solve and tiny dimensions are out of its
  reach;
- n >= SECTOR_MIN_QUBITS = 14, when H conserves popcount (Heisenberg with
  Z fields): one CSR block per popcount sector (:func:`popcount_sectors`),
  each solved on its own and the pairs merged, so the largest matrix at
  n = 16 has C(16, 8) = 12870 rows, not 65536;
- otherwise, up to ORACLE_MAX_QUBITS = 20: H built once as one CSR matrix
  (:func:`sparse_matrix`).

Both CSR forms read their entries from the expansion loop's own kernel,
:meth:`PauliHamiltonian.diagonal` and
:meth:`PauliHamiltonian.amplitude_table`, through :func:`_csr_block`,
which is also the symmetry detector: a nonzero entry that leaves its
sector sends the solve to the one-matrix route, so an H with a
transverse field (TFIM) is caught at sector 0 and solved exactly as
before.  ``exact_lowest(method=...)`` forces the dense route (up to
DENSE_MAX_QUBITS = 12) or the one-matrix Lanczos route: the benchmark
forces the latter and tests compare the routes, while the command line
always takes the one the size and H pick.  Every returned pair, sector
pairs scattered back to 2^n vectors included, is verified against the
residual bound ``norm(H psi - E psi) <= RESIDUAL_TOL`` (1e-9) through
:func:`apply_hamiltonian`, a term-by-term product on the full vector that
shares no code with the CSR builder or that kernel, so neither a silent
misconvergence nor a wrong matrix entry can leak into benchmark
baselines.  The result is an :class:`EigenpairSet`, which derives e0, e1
and the degeneracy flag (E1 - E0 < DEGENERACY_GAP) from its energies; the
sweeps, ``assqd oracle`` and the trace records of ``assqd run`` and
``assqd ingest`` all read them from it.  :func:`save_eigenpairs` writes
the pairs of ``assqd oracle --pairs`` to an .npz; the package never
reads one back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from assqd.pauli import DENSE_MAX_QUBITS, KERNEL_BLOCK, PauliHamiltonian, PauliTerm

ORACLE_MAX_QUBITS = 20

DEGENERACY_GAP = 1e-8

# Largest residual norm(H psi - E psi) accepted for a returned eigenpair.
RESIDUAL_TOL = 1e-9

# Iteration cap for the Lanczos route, in ARPACK restart cycles.
LANCZOS_MAXITER = 20_000

# Largest n the default route solves densely.  Measured per solve (CPU
# time, one BLAS thread, Heisenberg, TFIM and a complex random Hamiltonian,
# count 2 and 8): at n = 8 dense eigh takes 4.1-12.7 ms and CSR + ARPACK
# 4.2-24.8 ms (ratio 0.96-1.96); at n = 9 dense 17-74 ms and sparse
# 4.7-59 ms (ratio 0.26-0.81); at n = 12 dense 5.7-30 s and sparse
# 0.03-0.51 s.  Every n above it keeps ARPACK's count < dim - 1 for the
# largest count, 8.
DEFAULT_DENSE_MAX_QUBITS = 8

# Smallest n whose default route splits a popcount-conserving H into its
# sectors.  Measured per solve (CPU ms, median of 5, one BLAS thread,
# Heisenberg disorder seeds 0-2; full CSR route / sector route):
#
#   n          count 2                count 8
#   9      4.5-6.4 / 6.3-7.4     12.7-15.4 / 11.4-14.3
#   10     9.5-11  / 17-21         18-23   /   30-39
#   11      14     / 25-26         26-31   /   44-49
#   12      35-40  / 52-54         60-65   /   89-93
#   13      62-81  / 83-92        135-169  /  135-159
#   14     182-233 / 158-161      306-329  /  241-263
#   15     370-460 / 288-298      634-821  /  461-542
#   16   1278-1380 / 669-697     1677-2009 / 1181-1338
#
# Below it the fixed cost of one ARPACK solve per sector outweighs what
# the smaller solves save.  Heisenberg plus a complex XY - YX bond crosses at the same
# n (count 2: 156-180 / 180-193 ms at n = 13, 418-503 / 346-372 at 14).
SECTOR_MIN_QUBITS = 14

# Dense eigensolve up to this matrix order, seeded CSR Lanczos beyond.
# Measured per solve (CPU ms on an Intel Xeon, one OpenBLAS thread, on
# prefixes of the expand-wide subspace of seed 0; dense route / sparse
# route):
#
#   m                        100        150        250        300        850
#   Heisenberg n = 12     0.4 / 1.5  0.8 / 2.4  2.7 / 3.3  4.1 / 3.4  57 / 4.8
#   TFIM n = 14           0.5 / 2.0  1.1 / 2.1  2.7 / 3.1  3.7 / 3.3  59 / 5.0
#   Heisenberg + Y0       1.2 / 5.1  2.9 / 7.6  9.9 / 7.8   15 / 8.6 272 / 11
#
# Real matrices cross over between 250 and 300 states, complex (odd-Y)
# ones between 200 and 250.
DENSE_SOLVE_MAX = 250


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

    The terms of ``ham.terms`` are grouped by x_mask here, and each mask's
    terms are summed into one amplitude per source state i ^ x_mask
    (signed by that source state) before the gather, so the residual check
    shares no code with the CSR builder or the Pauli kernel behind it.
    """
    v = np.asarray(v)
    dim = 1 << ham.n
    if v.shape != (dim,):
        raise ValueError(f"expected vector of dimension {dim}, got shape {v.shape}")
    groups: dict[int, list[PauliTerm]] = {}
    for term in ham.terms:
        groups.setdefault(term.x_mask, []).append(term)
    out = np.zeros(dim, dtype=np.result_type(v.dtype, ham.dtype, np.float64))
    idx = np.arange(dim, dtype=np.int64)
    for x in sorted(groups):
        src = idx ^ x
        amp = np.zeros(dim, dtype=ham.dtype)
        for term in groups[x]:
            w = term.weight.real if ham.is_real else term.weight
            amp += np.where(np.bitwise_count(src & term.z_mask) & 1, -w, w)
        out += amp * v[src]
    return out


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude amplitude is real and positive."""
    pivot = vec[int(np.argmax(np.abs(vec)))]
    scale = abs(pivot)
    if scale == 0.0:
        return vec
    rotated = vec * (np.conj(pivot) / scale)
    return rotated.real if np.all(np.abs(rotated.imag) <= 1e-12) else rotated


def hermitian_lowest(
    matrix: np.ndarray | scipy.sparse.sparray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest count eigenpairs of a Hermitian matrix, ascending.

    A dense array goes to LAPACK (``scipy.linalg.eigh``); a sparse one to
    implicitly-restarted Lanczos (ARPACK ``eigsh``) from a start vector
    drawn with seed 0, so a repeated call returns the same bits whatever
    ran before it.  The pairs are not residual-checked here; callers check
    them against their own bound.
    """
    if not scipy.sparse.issparse(matrix):
        return scipy.linalg.eigh(matrix, subset_by_index=(0, count - 1))
    dim = matrix.shape[0]
    # ARPACK stops with "starting vector is zero" when A v0 = 0; every
    # vector is an eigenvector of the zero matrix.  (count_nonzero would
    # sort the caller's indices in place, which moves the product's bits.)
    if not matrix.data.any():
        return np.zeros(count), np.eye(dim, count, dtype=matrix.dtype)
    v0 = np.random.default_rng(0).standard_normal(dim)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            matrix, k=count, which="SA", v0=v0,
            ncv=min(dim, max(2 * count + 1, 40)), maxiter=LANCZOS_MAXITER,
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
    is Hermitian and so <s|H|s^x> = conj(<s^x|H|s>).  The rows are filled
    in passes of at most KERNEL_BLOCK table entries, so no table larger
    than one pass is made.  A nonzero entry in a -1 column means H couples
    the block to a state outside it, and the result is None.  Entries that
    cancel exactly are then dropped in place; they include the whole
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
        data[rows, 1:] = np.conj(ham.amplitude_table(chunk).T)
        indices[rows] = column[chunk[:, None] ^ masks]
    outside = indices < 0
    if data[outside].any():
        return None
    indices[outside] = 0
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
    column = np.full(dim, -1, dtype=np.int32)
    blocks = []
    for weight in range(ham.n + 1):
        states = np.flatnonzero(popcount == weight)
        column[states] = np.arange(len(states), dtype=np.int32)
        block = _csr_block(ham, states, column)
        if block is None:
            return None
        column[states] = -1
        blocks.append((states, block))
    return blocks


def _lowest_over_blocks(
    blocks: list[tuple[np.ndarray, scipy.sparse.csr_array]], count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest count eigenpairs of a block-diagonal H, scattered to 2^n vectors.

    Every block first gives its lowest pair, and the solved pairs are
    ranked by energy, ties by block.  The eigenvalues a block has not
    given yet rank after its deepest solved pair, so they can reach the
    lowest count only when that pair ranks among the lowest count - 1.
    While some block's does, the one ranked first is solved again, deep
    enough to fill the ranks below its deepest pair, and the pairs are
    ranked again.  Blocks of at most DENSE_SOLVE_MAX states are solved
    densely.
    """
    depth = [1] * len(blocks)
    solved: list = [None] * len(blocks)
    while True:
        for w, (states, block) in enumerate(blocks):
            if solved[w] is None or len(solved[w][0]) < depth[w]:
                matrix = block.toarray() if len(states) <= DENSE_SOLVE_MAX else block
                solved[w] = hermitian_lowest(matrix, depth[w])
        energies = np.concatenate([vals for vals, _ in solved])
        owner = np.repeat(np.arange(len(blocks)), depth)
        order = np.lexsort((owner, energies))
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        deepest = rank[np.cumsum(depth) - 1]
        short = [
            w for w, (states, _) in enumerate(blocks)
            if deepest[w] < count - 1 and depth[w] < len(states)
        ]
        if not short:
            break
        w = min(short, key=lambda w: deepest[w])
        depth[w] = min(len(blocks[w][0]), depth[w] + count - 1 - int(deepest[w]))
    first = np.cumsum(depth) - np.asarray(depth)
    dim = sum(len(states) for states, _ in blocks)
    vecs = np.zeros((dim, count), dtype=blocks[0][1].dtype)
    for col, at in enumerate(order[:count]):
        w = owner[at]
        vecs[blocks[w][0], col] = solved[w][1][:, at - first[w]]
    return energies[order[:count]], vecs


def exact_lowest(
    ham: PauliHamiltonian,
    count: int = 2,
    method: str | None = None,
) -> EigenpairSet:
    """Residual-verified lowest eigenpairs of the full Hamiltonian.

    method selects the route explicitly ("dense" or "lanczos", the one
    CSR matrix).  By default n <= DEFAULT_DENSE_MAX_QUBITS goes dense; from
    SECTOR_MIN_QUBITS up an H that conserves popcount is solved sector by
    sector (:func:`popcount_sectors`), and every other size and H goes
    Lanczos on the one CSR matrix.
    """
    if ham.n > ORACLE_MAX_QUBITS:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_QUBITS}, got {ham.n}")
    if not 2 <= count <= 8:
        raise ValueError(f"count must be in [2, 8], got {count}")
    if count > (1 << ham.n):
        raise ValueError(f"count {count} too large for dimension {1 << ham.n}")
    blocks = None
    if method is None:
        if ham.n >= SECTOR_MIN_QUBITS:
            blocks = popcount_sectors(ham)
        if blocks is not None:
            method = "sector"
        else:
            method = "dense" if ham.n <= DEFAULT_DENSE_MAX_QUBITS else "lanczos"
    if blocks is not None:
        vals, vecs = _lowest_over_blocks(blocks, count)
    elif method == "dense":
        if ham.n > DENSE_MAX_QUBITS:
            raise ValueError(f"dense route limited to n <= {DENSE_MAX_QUBITS}")
        vals, vecs = hermitian_lowest(ham.dense_matrix(), count)
    elif method == "lanczos":
        if count >= (1 << ham.n) - 1:
            raise ValueError(
                f"lanczos route needs count < dimension - 1, got count {count} "
                f"at dimension {1 << ham.n}"
            )
        vals, vecs = hermitian_lowest(sparse_matrix(ham), count)
    else:
        raise ValueError(f"unknown method {method!r}")

    columns = []
    worst = 0.0
    for i in range(count):
        vec = vecs[:, i] / np.linalg.norm(vecs[:, i])
        residual = float(np.linalg.norm(apply_hamiltonian(ham, vec) - vals[i] * vec))
        worst = max(worst, residual)
        columns.append(fix_phase(vec))
    if worst > RESIDUAL_TOL:
        raise ConvergenceError(
            f"{method} eigensolve exceeded residual tolerance {RESIDUAL_TOL:.1e}",
            worst,
        )
    return EigenpairSet(
        energies=tuple(float(v) for v in vals), vectors=np.column_stack(columns)
    )


def save_eigenpairs(path, pairs: EigenpairSet) -> None:
    """Write energies, vectors and the degeneracy flag to an .npz file."""
    np.savez_compressed(
        path,
        energies=np.array(pairs.energies),
        vectors=pairs.vectors,
        degenerate_ground=np.array(pairs.degenerate_ground),
    )
