"""Reference eigenpairs of the full Hamiltonian, and the one eigensolver.

:func:`hermitian_lowest` gives the lowest eigenpairs of a Hermitian
matrix, dense LAPACK for a dense array and seeded ARPACK Lanczos for a
sparse one; the restricted solve of the expansion loop
(:func:`assqd.subspace.lowest_eigenpair`) calls it too.  The oracle hands
it one of two matrices, chosen by size.  Above DEFAULT_DENSE_MAX_QUBITS it
is H built once as a CSR matrix (:func:`sparse_matrix`), up to
ORACLE_MAX_QUBITS = 20.  At and below it, where ARPACK's set-up costs more
than the solve and tiny dimensions are out of its reach, it is the dense
matrix, selectable up to DENSE_MAX_QUBITS = 12 as the reference the tests
compare the sparse route against.  Every returned pair is verified against
the residual bound ``norm(H psi - E psi) <= tol`` through
:func:`apply_hamiltonian`, a term-by-term product that shares no code with
the CSR builder, so neither a silent misconvergence nor a wrong matrix
entry can leak into benchmark baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from assqd.pauli import DENSE_MAX_QUBITS, PauliHamiltonian

ORACLE_MAX_QUBITS = 20

DEGENERACY_GAP = 1e-8

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
    degenerate_ground: bool

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
    def psi0(self) -> np.ndarray:
        return self.vectors[:, 0]

    @property
    def psi1(self) -> np.ndarray:
        return self.vectors[:, 1]


def apply_hamiltonian(ham: PauliHamiltonian, v: np.ndarray) -> np.ndarray:
    """H @ v without materializing H: one XOR-gather per Pauli term."""
    v = np.asarray(v)
    dim = 1 << ham.n
    if v.shape != (dim,):
        raise ValueError(f"expected vector of dimension {dim}, got shape {v.shape}")
    xs, zs, ws = ham._term_arrays
    out = np.zeros(dim, dtype=np.result_type(v.dtype, ws.dtype, np.float64))
    idx = np.arange(dim, dtype=np.int64)
    for x, z, w in zip(xs, zs, ws):
        src = idx ^ x
        # Sign of each term amplitude is set by the source state.
        signs = 1.0 - 2.0 * (np.bitwise_count(src & z) & 1)
        out += w * signs * v[src]
    return out


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude amplitude is real and positive."""
    pivot = vec[int(np.argmax(np.abs(vec)))]
    scale = abs(pivot)
    if scale == 0.0:
        return vec
    rotated = vec * (np.conj(pivot) / scale)
    return rotated.real if np.allclose(rotated.imag, 0.0, atol=1e-12) else rotated


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


def sparse_matrix(ham: PauliHamiltonian) -> scipy.sparse.csr_array:
    """H as a CSR matrix, built directly in that format.

    Each distinct x_mask is one block of entries: row i holds column
    i ^ x_mask, whose value is :meth:`PauliHamiltonian.amplitudes` of that
    x_mask at the column state (the arithmetic, in term order, of
    :meth:`PauliHamiltonian.dense_matrix`).  Every row has one entry per
    block, so ``indptr`` is ``arange(dim + 1) * G`` for G distinct
    x_masks; entries that cancel exactly are dropped at the end, in place.
    Real values take 8 bytes and ``int32`` column indices 4, so the matrix
    holds about G * 2^n * 12 bytes: ~13 MB for Heisenberg at n = 16
    (G = 17), where XX + YY cancel on aligned neighbours and 9 entries per
    row remain.
    """
    if ham.n > ORACLE_MAX_QUBITS:
        raise ValueError(
            f"sparse matrix limited to n <= {ORACLE_MAX_QUBITS}, got {ham.n}"
        )
    dim = 1 << ham.n
    xs, _, ws = ham._term_arrays
    masks = np.unique(xs)
    if dim * len(masks) > np.iinfo(np.int32).max:
        raise ValueError(f"{dim * len(masks)} entries exceed int32 CSR indexing")
    data = np.empty((dim, len(masks)), dtype=ws.dtype)
    indices = np.empty((dim, len(masks)), dtype=np.int32)
    idx = np.arange(dim, dtype=np.int64)
    for g, x in enumerate(masks):
        cols = idx ^ x
        data[:, g] = ham.amplitudes(x, cols)
        indices[:, g] = cols
    indptr = np.arange(dim + 1, dtype=np.int32) * np.int32(len(masks))
    matrix = scipy.sparse.csr_array(
        (data.reshape(-1), indices.reshape(-1), indptr), shape=(dim, dim)
    )
    matrix.eliminate_zeros()
    return matrix


def exact_lowest(
    ham: PauliHamiltonian,
    count: int = 2,
    tol: float = 1e-9,
    method: str | None = None,
) -> EigenpairSet:
    """Residual-verified lowest eigenpairs of the full Hamiltonian.

    method selects the route explicitly ("dense" or "lanczos"); by
    default n <= DEFAULT_DENSE_MAX_QUBITS goes dense and larger sizes go
    Lanczos on the CSR matrix.
    """
    if ham.n > ORACLE_MAX_QUBITS:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_QUBITS}, got {ham.n}")
    if not 2 <= count <= 8:
        raise ValueError(f"count must be in [2, 8], got {count}")
    if count > (1 << ham.n):
        raise ValueError(f"count {count} too large for dimension {1 << ham.n}")
    if method is None:
        method = "dense" if ham.n <= DEFAULT_DENSE_MAX_QUBITS else "lanczos"
    if method == "dense":
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
    if worst > tol:
        raise ConvergenceError(
            f"{method} eigensolve exceeded residual tolerance {tol:.1e}", worst
        )
    vectors = np.column_stack(columns)
    energies = tuple(float(v) for v in vals)
    return EigenpairSet(
        energies=energies,
        vectors=vectors,
        degenerate_ground=(energies[1] - energies[0]) < DEGENERACY_GAP,
    )


def save_eigenpairs(path, pairs: EigenpairSet) -> None:
    """Cache eigenpairs to an .npz so sweeps can skip repeated solves."""
    np.savez_compressed(
        path,
        energies=np.array(pairs.energies),
        vectors=pairs.vectors,
        degenerate_ground=np.array(pairs.degenerate_ground),
    )


def load_eigenpairs(path) -> EigenpairSet:
    data = np.load(path)
    return EigenpairSet(
        energies=tuple(float(e) for e in data["energies"]),
        vectors=data["vectors"],
        degenerate_ground=bool(data["degenerate_ground"]),
    )
