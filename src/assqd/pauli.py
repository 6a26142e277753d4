"""Pauli-string Hamiltonians acting on computational basis states.

Basis states are plain integers: bit i of the value is the measurement
outcome of qubit i, so qubit 0 sits in the least-significant bit.  A Pauli
string is stored symplectically as a pair of bitmasks: ``x_mask`` marks
qubits acted on by X or Y, ``z_mask`` marks qubits acted on by Z or Y
(Y = both bits set, identity = neither).  With this encoding a term maps
each basis state to exactly one basis state via XOR, and the phase is a
popcount:

    P |b> = i^{#Y} * (-1)^{popcount(z_mask & b)} |b XOR x_mask>

using the convention Y|0> = i|1>, Y|1> = -i|0>, with the Z-type signs read
from the *input* state.  Sets of basis states are int64 arrays.  Each
Hamiltonian is compiled once into two term blocks, its diagonal (x_mask =
0) terms and the terms of every off-diagonal mask side by side, and one
kernel, :func:`_block_sums`, defines each group's sum at a state.  A
group's sum reads the state only through the bits its z-masks touch, so
a group touching at most TABLE_MAX_BITS bits is tabulated once, when the
block is first evaluated, over the patterns of those bits with the
kernel's own additions, and its entries are then looked up byte by byte
(:class:`_SupportTables`); a wider group calls the kernel.  Every matrix
element the package uses comes from these, to the kernel's bits, through
:meth:`PauliHamiltonian.diagonal` and
:meth:`PauliHamiltonian.amplitude_table` (all masks at once), from the
expansion loop to the reference oracle's CSR matrix; the oracle's
residual product computes its own.  Nothing here ever materializes the
2^n x 2^n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

MAX_QUBITS = 63

# Merged terms with |coefficient| below this are dropped at construction.
COEFF_CUTOFF = 1e-15

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# Most (term rank, mask, state) entries one pass of the block kernel takes:
# 512 KB per float64 temporary.  Larger passes leave the cache.  Measured
# per diagonal evaluation (24-32 terms, CPU, one thread): 4096 states took
# ~0.8 ms in one pass and ~0.4 ms in passes of this size, as in the
# per-term loop the kernel replaced; the 65536 states of one n = 16 oracle
# block took ~21 ms in one pass, ~9 ms in these and ~6 ms in that loop.
KERNEL_BLOCK = 1 << 16

# Widest group support, in bits, that gets a lookup table (the support is
# the OR of the group's z-masks); a real table takes 8 * 2^bits bytes, a
# complex one twice that.  Measured for one group reading b bits (the
# diagonal of a Heisenberg ring on b qubits, 2b terms; CPU, one thread,
# medians of 21 interleaved repeats, 9 past 16 bits), in ms:
#
#   bits  table KB  build  all 2^b states:      1500 states:
#                          direct  looked up    direct  looked up
#      8        2    0.29    0.03     0.01         (all states)
#     10        8    0.39    0.09     0.02         (all states)
#     12       32    0.60    0.72     0.05       0.24     0.02
#     14      128    1.03    2.33     0.18       0.30     0.03
#     15      256    1.55    4.54     0.56       0.22     0.04
#     16      512    2.56    8.96     0.83       0.27     0.05
#     17     1024    5.35   20.48     1.44       0.30     0.06
#     18     2048   12.33   45.51     3.22       0.43     0.07
#
# Below ~12 bits a build is mostly its fixed cost per term, under 1 ms.
# From 14 bits it costs under half of one direct pass over all 2^b states
# (under a third at 16), and the oracle makes at least one such pass; at
# 16 bits the expansion loop's lookups repay it within ~12 batches of 1500
# states.  Past 16 bits the build and the table double per bit while a
# batch saves no more, so a 17- or 18-bit table takes ~20 or ~35 such
# batches and 1-2 MB; no workload runs n > 16, and those groups stay with
# the kernel.  (Another run of this table read up to 1.8x these times on
# the shared host.)
TABLE_MAX_BITS = 16

_CHAR_TO_MASKS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string, symplectically encoded."""

    x_mask: int
    z_mask: int
    coefficient: float

    def __post_init__(self) -> None:
        if self.x_mask < 0 or self.z_mask < 0:
            raise ValueError("Pauli masks must be nonnegative")
        if not np.isfinite(self.coefficient):
            raise ValueError(f"non-finite coefficient {self.coefficient!r}")

    @classmethod
    def from_word(cls, coefficient: float, word: str) -> PauliTerm:
        """Build a term from a Pauli word; character i addresses qubit i."""
        x_mask = 0
        z_mask = 0
        for i, ch in enumerate(word):
            try:
                x_bit, z_bit = _CHAR_TO_MASKS[ch]
            except KeyError:
                raise ValueError(
                    f"invalid Pauli character {ch!r} in word {word!r}"
                ) from None
            x_mask |= x_bit << i
            z_mask |= z_bit << i
        return cls(x_mask, z_mask, float(coefficient))

    def to_word(self, n: int) -> str:
        chars = []
        for i in range(n):
            x_bit = (self.x_mask >> i) & 1
            z_bit = (self.z_mask >> i) & 1
            chars.append("IXZY"[x_bit + 2 * z_bit])
        return "".join(chars)

    @property
    def y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    @property
    def weight(self) -> complex:
        """State-independent part of the amplitude: coefficient * i^{#Y}."""
        return self.coefficient * _I_POWERS[self.y_count & 3]


def _block_sums(
    z_masks: np.ndarray, weights: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """Column sums of a term block at every state, shape (G, len(states)).

    Column g of the L x G block holds one x_mask's terms in term order,
    padded below with z_mask 0 and weight 0; entry (g, k) is the sum over
    l of weights[l, g] * (-1)^popcount(z_masks[l, g] & states[k]).  The
    states go in passes of at most KERNEL_BLOCK block entries; in each, one
    bitwise_count covers the block, then the ranks are added one at a time
    from zero, so each sum runs in term order: numpy's reductions would
    reorder it.  A padding row adds +0.0, which changes no bit of a sum
    that starts from +0.0.
    """
    out = np.zeros((z_masks.shape[1], len(states)), dtype=weights.dtype)
    step = max(1, KERNEL_BLOCK // max(1, z_masks.size))
    for start in range(0, len(states), step):
        parity = np.bitwise_count(z_masks[:, :, None] & states[start:start + step]) & 1
        signs = (1 - 2 * parity.view(np.int8)).astype(weights.dtype)
        part = out[:, start:start + step]
        for term in weights[:, :, None] * signs:
            part += term
    return out


def _group_table(compressed: np.ndarray, weights: np.ndarray, width: int) -> np.ndarray:
    """One group's sums at each of its 2^width support patterns.

    Term l reads pattern bits ``compressed[l]``, so its signed weight
    depends only on the pattern's low bit_length(compressed[l]) bits: it
    is tiled along rows of at least 256 patterns (or the whole table) and
    added to every row at once, ranks in term order from +0.0, with the
    kernel's own product ``weight * sign`` (sign 1 or -1 in the weights'
    dtype), so each entry is :func:`_block_sums`'s sum to the bit.
    """
    table = np.zeros(1 << width, dtype=weights.dtype)
    signs = np.array([1, -1], dtype=np.int8).astype(weights.dtype)
    for mask, weight in zip(compressed.tolist(), weights):
        plus, minus = weight * signs
        span = 1 << mask.bit_length()
        odd = (np.bitwise_count(np.arange(span, dtype=np.uint32) & mask) & 1).view(bool)
        row = max(span, min(256, len(table)))
        table.reshape(-1, row)[...] += np.where(np.tile(odd, row // span), minus, plus)
    return table


class _SupportTables:
    """:func:`_block_sums` of one term block, tabulated where that is cheap.

    Column g of the block reads a state only through its bits in U_g, the
    OR of the column's z-masks.  A column with |U_g| <= TABLE_MAX_BITS gets
    a table of its sums at the 2^|U_g| patterns of those bits
    (:func:`_group_table`), all tables in one flat ``values`` array at
    ``offsets``.  A state's pattern index is gathered byte by byte from
    256-entry tables, one per byte that some U_g touches, and its entry is
    one more gather, in passes of at most KERNEL_BLOCK entries.  Wider
    columns (the diagonal past n = 16, wide random masks) are left to
    :func:`_block_sums`.  Every entry is the kernel's bits.
    """

    def __init__(self, z_masks: np.ndarray, weights: np.ndarray):
        unions = np.bitwise_or.reduce(z_masks, axis=0)
        wide = np.bitwise_count(unions) > TABLE_MAX_BITS
        self.groups = z_masks.shape[1]
        self.direct = np.flatnonzero(wide)
        self.direct_block = (z_masks[:, wide], weights[:, wide])
        self.tabled = np.flatnonzero(~wide)
        # Bit i of U_g lands on index bit (number of U_g bits below i).
        qubits = np.arange(MAX_QUBITS)
        bits = (unions[~wide, None] >> qubits) & 1
        place = bits << (np.cumsum(bits, axis=1) - bits)
        byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
        self.gathers = [
            (shift, place[:, shift:shift + 8] @ byte_bits[:, :MAX_QUBITS - shift].T)
            for shift in range(0, MAX_QUBITS, 8) if place[:, shift:shift + 8].any()
        ]
        tables = []
        for row, g in enumerate(self.tabled):
            compressed = ((z_masks[:, g, None] >> qubits) & 1) @ place[row]
            tables.append(_group_table(compressed, weights[:, g], int(bits[row].sum())))
        sizes = [len(table) for table in tables]
        self.offsets = np.cumsum([0] + sizes, dtype=np.int64)[:-1, None]
        self.values = np.concatenate(tables) if tables else np.zeros(0, weights.dtype)

    def sums(self, states: np.ndarray) -> np.ndarray:
        """The block's column sums at every state, shape (G, len(states))."""
        out = np.empty((self.groups, len(states)), dtype=self.values.dtype)
        if len(self.direct):
            out[self.direct] = _block_sums(*self.direct_block, states)
        if not len(self.tabled):
            return out
        rows = self.tabled if len(self.direct) else slice(None)
        step = max(1, KERNEL_BLOCK // len(self.tabled))
        for start in range(0, len(states), step):
            chunk = states[start:start + step]
            index = self.offsets
            for shift, gather in self.gathers:
                part = gather.take((chunk >> shift) & 255, axis=1)
                part += index
                index = part
            out[rows, start:start + step] = self.values.take(index)
        return out


def _term_block(groups, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(z_masks, weights) of (z_mask, weight) groups as zero-padded L x G arrays."""
    groups = list(groups)
    depth = max((len(entries) for entries in groups), default=0)
    z_masks = np.zeros((depth, len(groups)), dtype=np.int64)
    weights = np.zeros((depth, len(groups)), dtype=dtype)
    real = not np.iscomplexobj(weights)
    for g, entries in enumerate(groups):
        for rank, (z_mask, weight) in enumerate(entries):
            z_masks[rank, g] = z_mask
            weights[rank, g] = weight.real if real else weight
    return z_masks, weights


@dataclass(frozen=True)
class PauliHamiltonian:
    """Real-weighted sum of Pauli strings over n qubits.

    Terms are canonicalized at construction: duplicates (same mask pair)
    are merged by summing coefficients, and merged terms with negligible
    coefficient are dropped.  A Hamiltonian whose summed |coefficient|,
    a bound on every matrix element, overflows float64 is refused.
    Instances are immutable; the cached lookup structures make every
    operation safe for concurrent use.
    """

    n: int
    terms: tuple[PauliTerm, ...]

    def __init__(self, n: int, terms: Iterable[PauliTerm]):
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
        limit = 1 << n
        merged: dict[tuple[int, int], float] = {}
        for term in terms:
            if term.x_mask >= limit or term.z_mask >= limit:
                raise ValueError(
                    f"term masks ({term.x_mask:#x}, {term.z_mask:#x}) exceed {n} qubits"
                )
            key = (term.x_mask, term.z_mask)
            merged[key] = merged.get(key, 0.0) + term.coefficient
        # Every matrix element is a signed sum of the merged coefficients.
        if not np.isfinite(sum(abs(c) for c in merged.values())):
            raise ValueError("sum of |coefficient| overflows float64")
        canon = tuple(
            PauliTerm(x, z, c) for (x, z), c in merged.items() if abs(c) >= COEFF_CUTOFF
        )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", canon)

    @cached_property
    def _groups(self) -> dict[int, tuple[tuple[int, complex], ...]]:
        """Terms grouped by x_mask as (z_mask, weight) pairs."""
        groups: dict[int, list[tuple[int, complex]]] = {}
        for term in self.terms:
            groups.setdefault(term.x_mask, []).append((term.z_mask, term.weight))
        return {x: tuple(entries) for x, entries in groups.items()}

    @cached_property
    def offdiag_masks(self) -> tuple[int, ...]:
        """Distinct nonzero x_masks, ascending: the connectivity of H."""
        return tuple(sorted(x for x in self._groups if x))

    @cached_property
    def is_real(self) -> bool:
        """True when every term has an even Y count (all elements real)."""
        return all(term.y_count % 2 == 0 for term in self.terms)

    @property
    def dtype(self) -> type:
        """Matrix-element dtype: float64 when H is real, complex128 otherwise."""
        return np.float64 if self.is_real else np.complex128

    def _group_amplitude(self, x_mask: int, state: int) -> complex:
        """Sum of term amplitudes with this x_mask acting on |state>."""
        total = 0.0 + 0.0j
        for z_mask, weight in self._groups.get(x_mask, ()):
            if (z_mask & state).bit_count() & 1:
                total -= weight
            else:
                total += weight
        return total

    def matrix_element(self, k: int, j: int) -> complex:
        """<k|H|j>, summing only terms whose x_mask equals k XOR j."""
        return self._group_amplitude(k ^ j, j)

    @cached_property
    def _diagonal_tables(self) -> _SupportTables:
        """The x_mask = 0 terms as an L x 1 block; their weights are real."""
        return _SupportTables(*_term_block([self._groups.get(0, ())], np.float64))

    @cached_property
    def _offdiag_tables(self) -> _SupportTables:
        """Terms of every off-diagonal mask, column g holding offdiag_masks[g]."""
        groups = (self._groups[x] for x in self.offdiag_masks)
        return _SupportTables(*_term_block(groups, self.dtype))

    def diagonal(self, states) -> np.ndarray:
        """<k|H|k> for every k in ``states``, float64, shaped like ``states``.

        Each entry equals the real part of :meth:`_group_amplitude` at
        x_mask 0 bit for bit.
        """
        states = np.asarray(states, dtype=np.int64)
        return self._diagonal_tables.sums(states.reshape(-1))[0].reshape(states.shape)

    def amplitude_table(self, states) -> np.ndarray:
        """<s XOR x|H|s> for every off-diagonal mask x and state s at once.

        Row g holds mask ``offdiag_masks[g]``, column k state ``states[k]``
        (a 1-D int64 array); each entry equals :meth:`_group_amplitude`
        bit for bit, in :attr:`dtype`.
        """
        return self._offdiag_tables.sums(np.asarray(states, dtype=np.int64))

    def neighbors(self, s: int) -> set[int]:
        """Basis states reachable from |s> by some off-diagonal term.

        Connectivity is per term: any nonzero x_mask contributes s XOR
        x_mask (each single-term amplitude has unit-modulus phase, so it
        never vanishes).  Contributions from distinct terms sharing an
        x_mask may still cancel in the summed matrix element.
        """
        return {s ^ x for x in self.offdiag_masks}


def parse_hamiltonian(text: str) -> PauliHamiltonian:
    """Parse the one-term-per-line text format: ``<coefficient> <word>``.

    Words are strings over {I, X, Y, Z} with character i addressing qubit
    i; all words must share one length.  Blank lines and lines starting
    with ``#`` are skipped.
    """
    terms: list[PauliTerm] = []
    n: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<coefficient> <word>', got {raw!r}")
        try:
            coeff = float(parts[0])
        except ValueError:
            raise ValueError(f"line {lineno}: bad coefficient {parts[0]!r}") from None
        word = parts[1]
        if n is None:
            n = len(word)
        elif len(word) != n:
            raise ValueError(
                f"line {lineno}: word length {len(word)} differs from earlier {n}"
            )
        terms.append(PauliTerm.from_word(coeff, word))
    if n is None:
        raise ValueError("no Pauli terms found")
    return PauliHamiltonian(n, terms)


def format_hamiltonian(ham: PauliHamiltonian) -> str:
    """Emit the text format read back by :func:`parse_hamiltonian`."""
    lines = [f"{term.coefficient!r} {term.to_word(ham.n)}" for term in ham.terms]
    return "\n".join(lines) + "\n"


def load_hamiltonian(path) -> PauliHamiltonian:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hamiltonian(fh.read())
