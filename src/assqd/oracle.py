"""Reference eigenpairs of the full Hamiltonian, and the one eigensolver.

:func:`hermitian_lowest` gives the lowest eigenpairs of a Hermitian
matrix, dense LAPACK for a dense array and seeded ARPACK Lanczos for a
sparse one, which ARPACK multiplies by directly (:class:`_Product`); the
restricted solve of the expansion loop
(:func:`assqd.subspace.lowest_eigenpair`) calls it too, and both pick the
dense form up to DENSE_SOLVE_MAX = 170 states.  The restricted solve
hands Lanczos a guess, which starts it beside a little of the seeded
vector (WARM_MIX); the oracle never does.  Both callers verify their
pairs in one function, :func:`verified_pairs`, against one rule,
:func:`residual_bound`: norm(H psi - E psi) at most max(RESIDUAL_TOL,
ROUNDING_FACTOR eps r), r a bound on the matrix's largest absolute row
sum, so 1e-9 up to r ~ 7.0e4 and a stable solver's rounding floor above
it.  ARPACK stops once every Ritz estimate is at most a tenth
(ARPACK_TOL_DIVISOR) of that bound, not at machine precision, and its
Krylov basis is sized to the pairs asked for (:func:`krylov_size`: 10
vectors for one or two pairs, 20 for eight).
When two returned energies tie, the lowest pair of the matrix deflated
by the returned vectors is solved too, so a level with more copies than
one start vector's Krylov space holds still gives the lowest energies;
scipy composes that operator from :class:`_Product` and Q Q^H, Q an
orthonormal basis of those vectors.

:func:`exact_lowest` restricts H to blocks and diagonalises each, with
the one solver over blocks, :func:`_lowest_over_blocks`, which solves a
block densely up to DENSE_SOLVE_MAX states and with ARPACK above that:

- when H conserves popcount (Heisenberg with Z fields), at every n:
  one CSR block per popcount sector, each solved on its own and the
  pairs merged, so the largest matrix at n = 16 has C(16, 8) = 12870
  rows, not 65536.  The blocks are solved in ascending order of their
  Gershgorin floor, a lower bound on their eigenvalues, the first for
  count pairs at once and the rest for one;
  once count pairs are in hand, a block whose floor lies above the
  count-th lowest of them cannot hold a wanted pair, and it and every
  block after it are skipped.  A block whose Gershgorin floor falls short
  is skipped alone when a tighter Collatz-Wielandt floor
  (:func:`_weighted_floor`) clears that cut.  Heisenberg at n = 16
  (disorder seeds 0-5) makes 3 solves of its 17 sectors at count 2 and 7
  at count 8, where the Gershgorin floor alone, with every sector solved
  once before any is deepened, makes 6-8 and 12.  The split runs in two
  passes.  The first (:func:`popcount_sectors`) walks all 2^n states
  once, reading each state's row from the kernel, and keeps only each
  sector's floor and the check that H stays in its sectors.  The second
  (:func:`_lowest_over_blocks`) builds each block when a floor test or a
  solve needs it and drops it after, so one block and ARPACK's basis are
  alive at a time: Heisenberg at n = 16, count 2, peaks at 7.2 MB
  (tracemalloc, the kernel's tables included), where holding all 17
  blocks peaked at 12.7 MB;
- otherwise (TFIM, or any H with a term that moves popcount), up to
  ORACLE_MAX_QUBITS = 20: one block, H as one CSR matrix over all 2^n
  states, solved for count pairs at once.

Every block is built by :func:`_csr_block` from the expansion loop's own
kernel, :meth:`PauliHamiltonian.diagonal` and
:meth:`PauliHamiltonian.amplitude_table`, as a state-major table and
links that :func:`linked_arrays` assembles, as it does the restricted
matrix.  Pass 1 reads the same kernel as the symmetry detector: a
nonzero entry that leaves its sector sends H to the one block, so an H
with a transverse field (TFIM) is caught at |0...0>, in the first pass.  So the route follows from H alone, at every size.
``exact_lowest(method="lanczos")`` keeps H in one block: the benchmark
asks for it and tests compare the two splits, while the command line
always takes the one H picks.
Every returned pair, sector pairs scattered back to 2^n vectors
included, passes :func:`verified_pairs` with r =
:attr:`PauliHamiltonian.radius`, H's summed |coefficient|, which bounds
every absolute row sum, and with :func:`apply_hamiltonian` as the
product, a term-by-term product scattered from the vectors' joint
support (all pairs in one call) that shares no code with the CSR builder
or that kernel, so neither a silent misconvergence nor a wrong matrix
entry can leak into benchmark baselines.  The result is an
:class:`EigenpairSet`, which derives e0, e1 and the degeneracy flag
(E1 - E0 < DEGENERACY_GAP) from its energies; the sweeps, ``assqd
oracle`` and the trace records of ``assqd run`` and ``assqd ingest`` all
read them from it.
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

# The least residual bound, which every matrix of row sums up to ~7.0e4 gets.
RESIDUAL_TOL = 1e-9

# A stable eigensolver's residual is O(eps r), r the matrix's largest
# absolute row sum (Golub & Van Loan, Matrix Computations, 4th ed., 2013).
# Oracle and restricted solves of Heisenberg and TFIM with every
# coefficient scaled by 1e5 and 1e8 left 1.4-10.6 eps r, so 64 leaves a
# 6x margin.
ROUNDING_FACTOR = 64


def residual_bound(radius: float) -> float:
    """Largest norm(H psi - E psi) accepted for an eigenpair of H.

    ``radius`` is r, a bound on H's largest absolute row sum, and so on
    its norm.  The bound is max(RESIDUAL_TOL, ROUNDING_FACTOR eps r):
    RESIDUAL_TOL up to r ~ 7.0e4, and above it the rounding floor of a
    stable solver, which no fixed absolute bound allows for.
    :func:`verified_pairs` checks every returned pair against it.
    """
    return max(RESIDUAL_TOL, ROUNDING_FACTOR * float(np.finfo(np.float64).eps) * radius)


# Iteration cap for the Lanczos route, in ARPACK restart cycles.
LANCZOS_MAXITER = 20_000

# ARPACK stops once each Ritz estimate is at most tol * |theta| (ARPACK
# Users' Guide, Lehoucq, Sorensen & Yang, 1998), and no |theta| exceeds
# the largest absolute row sum r, so tol = residual_bound(r) / (divisor * r)
# puts every estimated residual at or below a divisor-th of the bound.
# Past r ~ 7.0e4 that tol is 6.4 eps, where RESIDUAL_TOL / (divisor * r)
# would fall below eps from r ~ 4.5e5 on.  Of divisors 10, 30 and 100 and
# tol = 0, 10 was fastest, its worst true residual still 25 times below
# RESIDUAL_TOL (BENCH_arpack_tol.json, "divisor_scan").
ARPACK_TOL_DIVISOR = 10


def krylov_size(dim: int, count: int) -> int:
    """ARPACK's Krylov basis size (``ncv``) for ``count`` pairs of ``dim`` states.

    Most of a solve is ARPACK's own work on its basis, and each restart
    orthogonalises against all of it, so fewer vectors can cost less per
    restart than the restarts they add.  On the oracle's sector solves and
    the warm restricted solves that the workloads make, 10 vectors were
    the fastest for one and two pairs, and on the middle sectors of
    Heisenberg n = 14 and 16 scipy's default of 20 for eight
    (BENCH_krylov_size.json).  Small blocks can go the other way (sector
    blocks of 210 and 220 states at count 2).
    """
    return min(dim, max(2 * count + 4, 10))


# Dense eigensolve up to this matrix order, sparse Lanczos beyond.  Warm
# ARPACK overtakes dense between 150 and 170 states on the restricted
# solves of real H and between 110 and 130 on complex (odd-Y) H; one limit
# serves both, and moving it would move E_est bits.  Cold ARPACK, all that
# the oracle runs, ties dense near 190 states; on the oracle's blocks of
# 210 and 220 states (sectors of n = 10 and 12) it leads by up to .15 ms at
# depth 1 and trails by up to .7 ms at depths 2 and 8, which does not pay
# for a second limit (BENCH_warm_restricted.json, BENCH_krylov_size.json).
DENSE_SOLVE_MAX = 170

# Weight of the seeded random vector r that a warm start keeps beside its
# guess g: ARPACK starts from g/|g| + WARM_MIX r/|r| (hermitian_lowest).
# A block-diagonal H (Heisenberg conserves popcount, and so does H_S) can
# hold its lowest pair in a block that g does not touch, and a start
# vector's Krylov space stays in the blocks it touches: at WARM_MIX = 0
# ARPACK missed the lower block on 20 of 20 such matrices, and at 1e-6,
# 1e-3 and 1e-1 on none.  Up to 1e-2 the mix costs no ARPACK product, and
# at 1e-1 a few (BENCH_warm_restricted.json).
WARM_MIX = 1e-3

# Power steps of the Collatz-Wielandt sector floor (_weighted_floor).  On
# Heisenberg n = 16 at count 2, the count every sweep uses, 20 steps cut
# the ARPACK solves from 5-7 to 3, as 30 and 40 do, for less time spent on
# the bound (BENCH_weighted_floor.json, "floor_steps").
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
    """H @ v without materializing H: one XOR-scatter per distinct x_mask.

    ``v`` is one vector of 2^n entries or a (2^n, k) block of k column
    vectors, and the result has its shape.  The terms of ``ham.terms`` are
    grouped by x_mask here, and each mask's terms are summed into one
    amplitude per source state s (signed by s) before
    ``out[s ^ x_mask] += amp(s) v[s]``, masks ascending, so the residual
    check shares no code with the CSR builder or the Pauli kernel behind
    it.  Only the source states where some column is nonzero are visited:
    any other adds a signed zero to an entry that starts at +0, which
    moves no bit, so the result is the full product's to the bit, and a
    sector-supported pair costs its support instead of 2^n (Heisenberg
    n = 16, count 2: 24310 of 65536 states, 28 -> 12 ms; a vector with
    every entry nonzero, as the one-block route gives, costs about 10%
    more, ~0.4 ms at n = 14).  One mask's targets are distinct, so
    ``np.add.at`` adds them as ``out[t] += p`` would, at a third of its
    cost.  Each amplitude is formed once and applied to the columns in
    turn, so every column gets the bits of a call on that column alone
    (numpy's complex product over a broadcast block rounds differently).
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
    support = np.flatnonzero((columns != 0).any(axis=0))
    held = np.take(columns, support, axis=1)
    for x in sorted(groups):
        amp = np.zeros(len(support), dtype=ham.dtype)
        for term in groups[x]:
            w = term.weight.real if ham.is_real else term.weight
            amp += np.where(np.bitwise_count(support & term.z_mask) & 1, -w, w)
        targets = support ^ x
        for column, vec in zip(out, held):
            np.add.at(column, targets, amp * vec)
    return out.T.reshape(v.shape)


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude amplitude is real and positive.

    A real vector is only multiplied by +-1, and its zero imaginary part
    is never formed.
    """
    pivot = vec[np.abs(vec).argmax()]
    scale = abs(pivot)
    if scale == 0.0:
        return vec
    rotated = vec * (pivot.conjugate() / scale)
    if np.isrealobj(rotated) or (np.abs(rotated.imag) <= 1e-12).all():
        return rotated.real
    return rotated


def _residuals(product, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """norm(A v - E v) of each column v of ``vecs``, E its entry of ``vals``.

    ``product`` maps a block of columns to A times them.  A residual past
    float64's range is inf (or NaN), without numpy's overflow warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(product(vecs) - vecs * vals, axis=0)


def verified_pairs(product, vals: np.ndarray, vecs: np.ndarray, radius) -> list[np.ndarray]:
    """The columns of ``vecs``, normalised and phase-fixed, once every pair passes.

    ``product`` maps a block of columns to A times them, and ``radius()``
    gives r, a bound on A's largest absolute row sum.  The worst residual
    norm(A v - E v) must be at most RESIDUAL_TOL or else at most
    :func:`residual_bound` of r, which is asked for only then; otherwise,
    NaN included, ConvergenceError is raised.  Every pair the package
    returns, the oracle's and the restricted solve's, passes here.
    """
    unit = vecs / [np.linalg.norm(vec) for vec in vecs.T]
    worst = float(_residuals(product, vals, unit).max())
    if not worst <= RESIDUAL_TOL:
        bound = residual_bound(radius())
        if not worst <= bound:
            raise ConvergenceError(f"eigenpair residual exceeds {bound:.1e}", worst)
    return [fix_phase(vec) for vec in unit.T]


def _magnitude(matrix: scipy.sparse.sparray) -> scipy.sparse.sparray:
    """|A| entrywise: ``abs(data)`` on A's own ``indices`` and ``indptr``.

    A is CSR or CSC, and so is |A|.  Anything that brings A to canonical
    form (``abs(A)``, a sum over an axis) sorts A's ``indices`` in place,
    and A's products, summed in the new order, change their last bits;
    this shares them and reorders nothing.
    """
    return type(matrix)(
        (np.abs(matrix.data), matrix.indices, matrix.indptr), shape=matrix.shape
    )


def _lapack_lowest(matrix: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The dense branch of :func:`hermitian_lowest`: ``?syevr``/``?heevr``."""
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or not 1 <= count <= dim:
        raise ValueError(f"cannot take {count} eigenpairs of a {matrix.shape} matrix")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix must not contain infs or NaNs")
    prefix = "he" if np.iscomplexobj(matrix) else "sy"
    evr, evr_lwork = scipy.linalg.get_lapack_funcs(
        (prefix + "evr", prefix + "evr_lwork"), (matrix,)
    )
    *sizes, info = evr_lwork(n=dim, lower=1)
    if info != 0:
        raise scipy.linalg.LinAlgError(f"{prefix}evr workspace query: info {info}")
    names = ("lwork", "lrwork", "liwork") if prefix == "he" else ("lwork", "liwork")
    workspace = {name: int(size.real) for name, size in zip(names, sizes)}
    vals, vecs, found, _, info = evr(
        matrix, compute_v=1, range="I", lower=1, il=1, iu=count, **workspace
    )
    if info != 0:
        raise scipy.linalg.LinAlgError(f"{prefix}evr failed: info {info}")
    return vals[:found], vecs[:, :found]


class _Product(scipy.sparse.linalg.LinearOperator):
    """x -> ``matrix @ x``, handed to ARPACK in place of the matrix itself.

    ``eigsh`` wraps a sparse matrix in ``aslinearoperator``, whose
    ``matvec`` passes each product through ``_matvec``, ``matmat``,
    ``_matmat`` and ``dot`` with a shape check and a reshape at each
    step, and then multiplies by an (n, 1) column.  ARPACK asks for one
    1-D product at a time, so this returns ``matrix @ x`` at once: 10.9
    against 13.1 us a product on an 850-state restricted matrix
    (Heisenberg n = 12, one thread of an Intel Xeon).  The one-column and
    the 1-D products add each row's entries in the same order, so the
    bits are the same.  The matrix is CSR (the oracle's blocks) or CSC
    (the restricted matrix).  scipy's CSC product adds each row's terms
    in ascending column order, from +0, as its CSR product does on sorted
    column indices, so the two formats of one matrix give the same bits.
    """

    def __init__(self, matrix: scipy.sparse.sparray):
        super().__init__(matrix.dtype, matrix.shape)
        self.matrix = matrix

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    _matvec = matvec


def hermitian_lowest(
    matrix: np.ndarray | scipy.sparse.sparray, count: int,
    guess: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest count eigenpairs of a Hermitian matrix, ascending.

    A dense array goes to LAPACK's ``?syevr`` (``?heevr`` when complex),
    called through ``scipy.linalg.lapack`` as ``scipy.linalg.eigh(matrix,
    subset_by_index=(0, count - 1))`` calls it, with the workspace sizes
    its ``?syevr_lwork`` query gives: the blocking of the tridiagonal
    reduction depends on them, and so do the bits.  The wrapper's checks
    are written out here, at a fraction of its per-call cost: a NaN or
    inf entry raises ValueError, and a nonzero LAPACK ``info`` raises
    LinAlgError; a guess is ignored.  A sparse matrix from
    :func:`linked_arrays`, CSR or CSC (any other format raises TypeError
    before any work), goes to
    implicitly-restarted Lanczos (ARPACK ``eigsh``, or the ``eigs`` call
    it makes when complex) from a start vector r drawn from
    ``default_rng(0)``, or with a guess from guess/|guess| + WARM_MIX r/|r|
    (a zero or misshapen guess raises ValueError).  ARPACK draws any new
    start vector it needs (when the Krylov space goes invariant, as on a
    degenerate spectrum) from that generator, not from OS entropy, so a
    repeated call from the same guess returns the same bits whatever ran
    before it.  The guess must be real when the matrix is.  ARPACK gets
    the matrix as :class:`_Product`, which returns each product as
    ``matrix @ x`` without scipy's operator chain, with the bits that
    chain gives.  The Krylov basis holds :func:`krylov_size` vectors,
    min(dim, max(2 count + 4, 10)): 10 for the one- and two-pair solves
    that every caller makes, and 20 at count 8.  ARPACK stops at
    tol = residual_bound(r) / (ARPACK_TOL_DIVISOR r), r the largest
    absolute row sum of the matrix, so every Ritz estimate ends at or
    below a tenth of :func:`residual_bound`, the one rule that
    :func:`exact_lowest` and :func:`assqd.subspace.lowest_eigenpair` both
    check, without the restarts that tol = 0 (machine precision) spends
    on digits neither reads.

    A Krylov space holds only its start vector's projection on each
    eigenspace, so on a degenerate spectrum Lanczos can return true
    eigenpairs that are not the lowest: one copy of a level, or two,
    where it has three (clean Heisenberg n = 8 at count 4 gave -12.5137
    twice and -10.7985, not -12.5137 three times).  So while two returned
    energies lie within DEGENERACY_GAP, at most count times, the lowest
    pair of x -> A x + 2 r Q (Q^H x), Q an orthonormal basis of the
    returned vectors, is solved from the generator's next draw; it lies in
    the complement of Q, and when it lies more than residual_bound(r)
    below the highest returned energy it replaces that pair.  The loop
    ends at the first solve that replaces none.  Energies without a tie
    never enter it, so their bits are the single solve's.  A level whose every copy
    but one the first solve misses shows no tie and stays missed (complex
    clean rings at count 4).  The copies of a level that ARPACK returns
    need not be orthogonal (complex clean rings with a Dzyaloshinskii-Moriya
    term on every bond came within 1.5e-2 of it at n = 10, count 8), so
    each run of returned energies within DEGENERACY_GAP of the next has its
    vectors replaced by ``np.linalg.qr``'s orthonormal basis of their span;
    a pair without a tie keeps its bits.  The pairs are not residual-checked
    here; callers pass them to :func:`verified_pairs`.
    """
    if not scipy.sparse.issparse(matrix):
        return _lapack_lowest(np.asarray(matrix), count)
    if matrix.format not in ("csr", "csc"):
        raise TypeError(f"sparse matrix must be CSR or CSC, got {matrix.format.upper()}")
    dim = matrix.shape[0]
    # ARPACK stops with "starting vector is zero" when A v0 = 0; every
    # vector is an eigenvector of the zero matrix.  (count_nonzero would
    # sort the caller's indices in place, which moves the product's bits.)
    if not matrix.data.any():
        return np.zeros(count), np.eye(dim, count, dtype=matrix.dtype)
    radius = float(np.max(_magnitude(matrix) @ np.ones(dim)))
    bound = residual_bound(radius)
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(dim)
    if guess is not None:
        guess = np.asarray(guess)
        norm = float(np.linalg.norm(guess))
        if guess.shape != v0.shape or not np.isfinite(norm) or norm == 0.0:
            raise ValueError(
                f"guess must be a nonzero finite vector of shape {v0.shape}")
        v0 = guess / norm + WARM_MIX * (v0 / np.linalg.norm(v0))
    eig, which = ((scipy.sparse.linalg.eigs, "SR") if np.iscomplexobj(matrix)
                  else (scipy.sparse.linalg.eigsh, "SA"))

    def arpack(operator: scipy.sparse.linalg.LinearOperator, k: int, start: np.ndarray):
        try:
            vals, vecs = eig(
                operator, k=k, which=which, v0=start, ncv=krylov_size(dim, k),
                maxiter=LANCZOS_MAXITER,
                tol=bound / (ARPACK_TOL_DIVISOR * radius), rng=rng,
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            if len(exc.eigenvalues) == 0:
                raise ConvergenceError(
                    f"Lanczos found no eigenpairs within {LANCZOS_MAXITER} restarts",
                    float("inf"),
                ) from exc
            residuals = _residuals(operator.matmat, exc.eigenvalues, exc.eigenvectors)
            raise ConvergenceError(
                f"Lanczos converged only {len(exc.eigenvalues)}/{k} pairs "
                f"within {LANCZOS_MAXITER} restarts",
                float(np.max(residuals)),
            ) from exc
        order = np.argsort(vals.real)
        return vals.real[order], vecs[:, order]

    vals, vecs = arpack(_Product(matrix), count, v0)
    # A Krylov space holds only its start vector's projection on each
    # eigenspace, so a tie can hide further copies of its level.
    for _ in range(count):
        if not np.any(np.diff(vals) < DEGENERACY_GAP):
            return vals, vecs
        # Q is an orthonormal basis of V, the returned vectors, so span(V)
        # moves up by exactly 2r and its complement is untouched.
        basis = scipy.sparse.linalg.aslinearoperator(np.linalg.qr(vecs)[0])
        deflated = _Product(matrix) + 2.0 * radius * (basis @ basis.H)
        (val,), vec = arpack(deflated, 1, rng.standard_normal(dim))
        if not val < vals[-1] - bound:
            break
        vals[-1], vecs[:, -1] = val, vec[:, 0]
        order = np.argsort(vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
    # ARPACK's copies of one level need not be orthogonal to each other.
    runs = np.flatnonzero(np.diff(vals) >= DEGENERACY_GAP) + 1
    for lo, hi in zip([0, *runs], [*runs, count]):
        if hi - lo > 1:
            vecs[:, lo:hi] = np.linalg.qr(vecs[:, lo:hi])[0]
    return vals, vecs


def linked_arrays(table: np.ndarray, links: np.ndarray) -> tuple[np.ndarray, ...]:
    """CSC arrays (data, indices, indptr) of a state-major table and its links.

    Column j holds row j's entries whose link, their row, is >= 0 and
    whose value is nonzero, in table order; ``indptr`` has the links'
    dtype.  When every entry is kept, data and indices are
    ``table.reshape(-1)`` and ``links.reshape(-1)``, not copies.  The
    restricted matrix's CSC form and the oracle's CSR blocks both come
    from here.
    """
    data, indices = table.reshape(-1), links.reshape(-1)
    # Flat positions, row-major: state j's are [j * width, (j + 1) * width).
    at = np.flatnonzero((indices >= 0) & (data != 0))
    bounds = np.arange(0, data.size + 1, links.shape[1], dtype=links.dtype)
    if len(at) == data.size:
        return data, indices, bounds
    return data.take(at), indices.take(at), np.searchsorted(at, bounds).astype(links.dtype)


def _csr_block(ham: PauliHamiltonian, states: np.ndarray) -> scipy.sparse.csr_array:
    """H on the int64 ``states`` as a CSR matrix, row and column r for ``states[r]``.

    Row r of a state-major table holds the entry of each mask x in (0,) +
    ``offdiag_masks``, in that order, and row r of its links the column
    ``column[states[r] ^ x]``, where ``column`` gives each state of the
    block its position and every other basis state -1.  The diagonal comes
    from :meth:`PauliHamiltonian.diagonal` and the rest from
    :meth:`PauliHamiltonian.amplitude_table` at the row state, because H is
    Hermitian and so <s|H|s^x> = conj(<s^x|H|s>); a real table is stored as
    it is, without a conjugated copy.  The rows are filled in passes of at
    most KERNEL_BLOCK entries, so no kernel table larger than one pass is
    made.  Read as columns, the rows are H^T, so the CSC arrays that
    :func:`linked_arrays` gives of them, zeros dropped, are H's CSR arrays.
    Every entry whose target lies outside the block must be zero (H
    conserves popcount on a sector, see :func:`popcount_sectors`), as
    XX + YY is on aligned bits.

    Real values take 8 bytes and ``int32`` column indices 4, so the table
    and links of all 2^n states, the one block of :func:`exact_lowest`'s
    one-block route, hold (G + 1) * 2^n * 12 bytes for G off-diagonal
    masks: 13.4 MB for Heisenberg at n = 16 (G = 16), whose XX + YY cancel
    on aligned neighbours, so 9 entries per row remain and the matrix
    keeps 7.1 MB (TFIM keeps all 17 per row, the table itself).  The
    largest sector block at n = 16, sector 8, keeps 1.5 MB.
    """
    column = np.full(1 << ham.n, -1, dtype=np.int32)
    column[states] = np.arange(len(states), dtype=np.int32)
    masks = np.array((0,) + ham.offdiag_masks, dtype=np.int64)
    if len(states) * len(masks) > np.iinfo(np.int32).max:
        raise ValueError(f"{len(states) * len(masks)} entries exceed int32 CSR indexing")
    table = np.empty((len(states), len(masks)), dtype=ham.dtype)
    links = np.empty(table.shape, dtype=np.int32)
    step = max(1, KERNEL_BLOCK // len(masks))
    for start in range(0, len(states), step):
        rows = slice(start, start + step)
        chunk = states[rows]
        table[rows, 0] = ham.diagonal(chunk)
        amplitudes = ham.amplitude_table(chunk).T
        table[rows, 1:] = amplitudes if ham.is_real else np.conj(amplitudes)
        links[rows] = column[chunk[:, None] ^ masks]
    return scipy.sparse.csr_array(
        linked_arrays(table, links), shape=(len(states), len(states))
    )


def popcount_sectors(ham: PauliHamiltonian) -> tuple[list[np.ndarray], list[float]] | None:
    """H's popcount sectors and their Gershgorin floors, or None if H mixes them.

    Sector w holds the C(n, w) states of popcount w, ascending.  Whether
    H stays in its sectors and what each sector's floor is both follow
    from one state's row at a time, so one walk over all 2^n states,
    ascending and in passes of at most KERNEL_BLOCK entries, reads the
    rows from the kernel (:meth:`PauliHamiltonian.diagonal` and
    :meth:`PauliHamiltonian.amplitude_table`) and builds no column map.
    A nonzero amplitude at mask x moves state s to another sector unless s
    holds exactly half of x's bits, and the first pass that meets one ends
    the walk: an H with a transverse field leaves at |0...0>, in the first
    pass.  Each state's Gershgorin value, Re H_ss + |H_ss| -
    (|H_ss| + sum_x |H_{s^x,s}|), summed from |H_ss| in mask order, is the
    one :func:`_weighted_floor` with no steps gives that row of its CSR
    block (a dropped entry is a zero, whose +0.0 moves no bit of the sum),
    and the floor of a sector is their minimum, which is exact, so each
    floor is the block's to the bit.  No block is built here, and no
    table larger than one pass: Heisenberg at n = 16 peaks at 2.6 MB here
    (tracemalloc, the kernel's tables included) and at 7.2 MB over the
    whole oracle call at count 2, in the first solve (sector 8), where
    holding every block, 7.3 MB of them, peaked at 12.7 MB.
    """
    dim = 1 << ham.n
    masks = np.array(ham.offdiag_masks, dtype=np.int64)[:, None]
    mask_bits = np.bitwise_count(masks)
    floors = np.full(ham.n + 1, np.inf)
    step = max(1, KERNEL_BLOCK // (1 + len(masks)))
    for start in range(0, dim, step):
        chunk = np.arange(start, min(start + step, dim), dtype=np.int64)
        table = ham.amplitude_table(chunk)
        stays = 2 * np.bitwise_count(chunk & masks) == mask_bits
        if np.logical_and(table != 0, ~stays).any():
            return None
        diagonal = ham.diagonal(chunk)
        total = np.abs(diagonal)
        for amplitudes in table:
            total += np.abs(amplitudes)
        np.minimum.at(floors, np.bitwise_count(chunk), diagonal + np.abs(diagonal) - total)
    # A stable sort keeps each sector's states ascending, and sector w
    # holds the next C(n, w) of them.
    order = np.argsort(np.bitwise_count(np.arange(dim, dtype=np.int64)), kind="stable")
    sectors = np.split(order, np.cumsum([math.comb(ham.n, w) for w in range(ham.n)]))
    return sectors, floors.tolist()


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
    :func:`linked_arrays` drops the zero entries.
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
    ham: PauliHamiltonian,
    sectors: list[np.ndarray],
    floors: list[float],
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest count eigenpairs of a block-diagonal H, scattered to 2^n vectors.

    Block w is H on the states ``sectors[w]``, and ``floors[w]`` its
    Gershgorin floor (:func:`popcount_sectors`; a lone block has nothing
    to rank or skip, and any floor serves).  Every block, the one block
    of all 2^n states too, is built by :func:`_csr_block` when a floor test
    or a solve needs it, and dropped once that test and solve are done, so
    one block and ARPACK's basis are alive at a time.  A block needed
    again (the first block's depth-1 solve, the deepening loop below) is
    built again.

    Every solved pair is one entry (energy, block, index) of a list kept
    sorted, so by energy, ties by block and then by index; a block solved
    again replaces its entries.  Blocks are taken in ascending order of
    their floor, ties by block.  The first gives its lowest min(count,
    size) pairs, each later one its lowest pair.  Once the list holds
    count entries, the cut is the count-th entry's energy plus the
    residual bound (for rounding; :func:`residual_bound` of
    :attr:`PauliHamiltonian.radius`, as :func:`exact_lowest` checks), and
    a block with no eigenvalue at or below it cannot hold a wanted pair:
    when its Gershgorin floor lies above the cut, it and every block after
    it are skipped, and when the bound of FLOOR_STEPS power steps
    (:func:`_weighted_floor`) does, it alone is.

    The eigenvalues a block has not given yet rank after its deepest
    solved pair, its last entry in the list, so they can reach the first
    count entries only when that entry is among the first count - 1.
    While some block's is, the block whose last entry comes first is
    solved again, deep enough to fill the entries below its last one up
    to the count-th.  Had every block given one pair first, the loop
    would begin by solving the first block again at depth min(count,
    size) whenever its pair ranks first, so solving it there at once
    saves a solve and reaches the same state.  When another block's lowest
    energy lies within that bound of its lowest, the first block is
    solved again at depth 1 before the loop, which restores that state.  A
    skipped block's pairs would all rank at count or later, so the result
    is the one that solving every block gives, to the bit.  The first
    count entries give the energies, and each one's vector is scattered to
    its block's states.  Blocks of at most DENSE_SOLVE_MAX states are
    solved densely.
    """
    ranked = []  # every solved pair as (energy, block, index), ascending
    vectors = {}
    bound = residual_bound(ham.radius)

    def solve(w: int, depth: int, cut: float | None = None) -> None:
        """Rank block w's lowest depth pairs, unless its weighted floor clears cut."""
        states = sectors[w]
        block = _csr_block(ham, states)
        if cut is not None and _weighted_floor(block, FLOOR_STEPS, cut) > cut:
            return
        matrix = block.toarray() if len(states) <= DENSE_SOLVE_MAX else block
        vals, vectors[w] = hermitian_lowest(matrix, min(depth, len(states)))
        kept = [pair for pair in ranked if pair[1] != w]
        ranked[:] = sorted(kept + [(e, w, i) for i, e in enumerate(vals.tolist())])

    lead, *rest = sorted(range(len(sectors)), key=floors.__getitem__)
    solve(lead, count)
    for w in rest:
        cut = None
        if len(ranked) >= count:
            cut = ranked[count - 1][0] + bound
            if floors[w] > cut:
                break
        solve(w, 1, cut)
    ground = next(e for e, w, _ in ranked if w == lead)
    if vectors[lead].shape[1] > 1 and any(
        e <= ground + bound for e, w, _ in ranked if w != lead
    ):
        solve(lead, 1)
    while True:
        # Each block's last entry is its deepest pair, at index depth - 1.
        deepest = {w: (r, i) for r, (_, w, i) in enumerate(ranked)}
        short = [(r, i, w) for w, (r, i) in deepest.items()
                 if r < count - 1 and i + 1 < len(sectors[w])]
        if not short:
            break
        r, i, w = min(short)
        solve(w, i + count - r)
    vecs = np.zeros((1 << ham.n, count), dtype=ham.dtype)
    for col, (_, w, i) in enumerate(ranked[:count]):
        vecs[sectors[w], col] = vectors[w][:, i]
    return np.array([e for e, _, _ in ranked[:count]]), vecs


def exact_lowest(
    ham: PauliHamiltonian,
    count: int = 2,
    method: str | None = None,
) -> EigenpairSet:
    """Residual-verified lowest eigenpairs of the full Hamiltonian.

    An H that conserves popcount is solved sector by sector
    (:func:`popcount_sectors`) at every n; an H that mixes the sectors,
    and any H under method="lanczos", is one block of all 2^n states,
    built once.  Either way :func:`_lowest_over_blocks` solves the blocks,
    and :func:`verified_pairs` checks the pairs through
    :func:`apply_hamiltonian`, with r = :attr:`PauliHamiltonian.radius`.
    """
    if ham.n > ORACLE_MAX_QUBITS:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_QUBITS}, got {ham.n}")
    if not 2 <= count <= 8:
        raise ValueError(f"count must be in [2, 8], got {count}")
    if count > (1 << ham.n):
        raise ValueError(f"count {count} too large for dimension {1 << ham.n}")
    if method not in (None, "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    split = popcount_sectors(ham) if method is None else None
    if split is None:
        split = [np.arange(1 << ham.n)], [0.0]
    vals, vecs = _lowest_over_blocks(ham, *split, count)
    del split  # freed before the residual check's 2^n-long work arrays
    vecs = verified_pairs(lambda x: apply_hamiltonian(ham, x), vals, vecs, lambda: ham.radius)
    return EigenpairSet(energies=tuple(float(v) for v in vals), vectors=np.column_stack(vecs))


def save_eigenpairs(path, pairs: EigenpairSet) -> None:
    """Write energies, vectors and the degeneracy flag to path, as .npz."""
    with open(path, "wb") as fh:  # given a name, numpy would append ".npz"
        np.savez_compressed(
            fh, energies=np.array(pairs.energies), vectors=pairs.vectors,
            degenerate_ground=np.array(pairs.degenerate_ground),
        )
