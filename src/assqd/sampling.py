"""Finite-shot counts: contaminated sampling, wire format, top-K seeding.

The preparation model mixes the ground state with the first excited state:
p(b) = (1 - eta) |<b|psi_0>|^2 + eta |<b|psi_1>|^2; eta and the mixed
probabilities are checked when the mix is made, and the ProbabilityModel
keeps only p.  Counts also arrive from outside (hardware
exports) via a small JSON format; both paths land in the same
CountsMultiset, whose shot total is the sum of its counts, and the
initial subspace is always the top-K states by count.

Wire format: {"n": int, "bit_order": "qubit0_first" | "qubit0_last",
"counts": {bitstring: positive int}}.  With qubit0_first (the default)
character 0 of a key is qubit 0, so "10" means qubit 0 = 1, value 1; with
qubit0_last the key is plain binary notation, so "10" has value 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from assqd.pauli import MAX_QUBITS, BasisState

BIT_ORDERS = ("qubit0_first", "qubit0_last")

NORMALIZATION_ATOL = 1e-10


@dataclass(frozen=True)
class ProbabilityModel:
    """Normalized outcome distribution over all 2^n basis states."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        dim = int(self.probs.shape[0])
        if dim < 2 or dim & (dim - 1):
            raise ValueError(f"distribution length {dim} is not a power of two")
        # A NaN fails every comparison, so test finiteness before the sign.
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("probabilities must be finite")
        if np.any(self.probs < 0):
            raise ValueError("probabilities must be nonnegative")
        total = float(self.probs.sum())
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @property
    def n(self) -> int:
        return int(self.probs.shape[0]).bit_length() - 1


@dataclass(frozen=True)
class CountsMultiset:
    """Observed measurement outcomes: state value -> positive count."""

    counts: dict[BasisState, int]
    n: int

    def __post_init__(self) -> None:
        limit = 1 << self.n
        for state, count in self.counts.items():
            if not 0 <= state < limit:
                raise ValueError(f"state {state} out of range for n = {self.n}")
            if count <= 0:
                raise ValueError(f"count for state {state} must be positive")


def contaminated_distribution(
    psi0: np.ndarray, psi1: np.ndarray, eta: float
) -> ProbabilityModel:
    """Mix the Born distributions of two states with weight eta on psi1."""
    psi0 = np.asarray(psi0)
    psi1 = np.asarray(psi1)
    if psi0.shape != psi1.shape:
        raise ValueError("state vectors must share one dimension")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    # A non-finite or overflowing amplitude, or two zero vectors, is
    # rejected here, before the division would warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        probs = (1.0 - eta) * np.abs(psi0) ** 2 + eta * np.abs(psi1) ** 2
    total = probs.sum()
    if not (np.isfinite(probs).all() and total > 0.0):
        raise ValueError("mixed probabilities must be finite with a positive sum")
    # Renormalize away float rounding; inputs are unit vectors.
    return ProbabilityModel(probs / total)


def sample_counts(model: ProbabilityModel, shots: int, seed: int) -> CountsMultiset:
    """Draw shots outcomes by inverse CDF over the nonzero support."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    support = np.flatnonzero(model.probs)
    cdf = np.cumsum(model.probs[support])
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    draws = np.searchsorted(cdf, rng.random(shots), side="right")
    tallies = np.bincount(draws, minlength=support.shape[0])
    drawn = np.flatnonzero(tallies)
    counts = dict(zip(support[drawn].tolist(), tallies[drawn].tolist()))
    return CountsMultiset(counts=counts, n=model.n)


def _key_to_state(key: str, n: int, bit_order: str) -> BasisState:
    if len(key) != n:
        raise ValueError(f"key {key!r} has length {len(key)}, expected {n}")
    if any(ch not in "01" for ch in key):
        raise ValueError(f"key {key!r} contains non-binary characters")
    if bit_order == "qubit0_first":
        return int(key[::-1], 2)
    return int(key, 2)


def _state_to_key(state: BasisState, n: int, bit_order: str) -> str:
    word = format(state, f"0{n}b")
    return word[::-1] if bit_order == "qubit0_first" else word


def parse_counts(obj: dict[str, Any]) -> CountsMultiset:
    """Build a CountsMultiset from a decoded counts JSON object."""
    if not isinstance(obj, dict):
        raise ValueError("counts JSON must be an object")
    if "n" not in obj:
        raise ValueError("counts object missing field 'n'")
    n = obj["n"]
    # bool is an int subclass; a JSON true must not pass as n = 1.
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"'n' must be an integer in [1, {MAX_QUBITS}], got {n!r}")
    bit_order = obj.get("bit_order", "qubit0_first")
    if bit_order not in BIT_ORDERS:
        raise ValueError(f"unknown bit_order {bit_order!r}")
    raw = obj.get("counts")
    if not isinstance(raw, dict) or not raw:
        raise ValueError("counts object must contain a nonempty 'counts' map")
    # A key of length n in 0/1 names one state, and a decoded object holds
    # each key once, so each state comes from one key.
    counts: dict[BasisState, int] = {}
    for key, value in raw.items():
        state = _key_to_state(key, n, bit_order)
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise ValueError(f"count for key {key!r} must be a positive integer")
        # top_k ranks the tallies as int64.
        if value > np.iinfo(np.int64).max:
            raise ValueError(f"count for key {key!r} exceeds 2**63 - 1")
        counts[state] = value
    return CountsMultiset(counts=counts, n=n)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's members as a dict; a repeated key raises ValueError."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} repeats in a JSON object")
        obj[key] = value
    return obj


def load_counts(path: str) -> CountsMultiset:
    """Read the counts wire format from a file.

    A key that repeats in one JSON object is an error: ``json.load`` would
    keep its last value and drop the earlier tallies without a word.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return parse_counts(json.load(fh, object_pairs_hook=_unique_keys))


def counts_to_json(counts: CountsMultiset, bit_order: str = "qubit0_first") -> str:
    if bit_order not in BIT_ORDERS:
        raise ValueError(f"unknown bit_order {bit_order!r}")
    keyed = {
        _state_to_key(state, counts.n, bit_order): counts.counts[state]
        for state in sorted(counts.counts)
    }
    return json.dumps(
        {"n": counts.n, "bit_order": bit_order, "counts": keyed}, indent=2
    )


def top_k(counts: CountsMultiset, K: int) -> list[BasisState]:
    """The K most frequent states, ties broken by ascending state value."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    size = len(counts.counts)
    states = np.fromiter(counts.counts.keys(), dtype=np.int64, count=size)
    tallies = np.fromiter(counts.counts.values(), dtype=np.int64, count=size)
    return states[np.lexsort((states, -tallies))[:K]].tolist()
