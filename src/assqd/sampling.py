"""Finite-shot counts: contaminated sampling, wire format, top-K seeding.

The preparation model mixes the ground state with the first excited state:
p(b) = (1 - eta) |<b|psi_0>|^2 + eta |<b|psi_1>|^2; eta and the mixed
probabilities are checked when the mix is made.  Counts also arrive from
outside (hardware exports) via a small JSON format; both paths land in the
same CountsMultiset, whose shot total is the sum of its counts, and the
initial subspace is always the top-K states by count.  Each state set, the
ProbabilityModel's nonzero support and the CountsMultiset's drawn states,
is an ascending, distinct int64 array with one aligned weight per state,
so nothing past the mix needs a 2^n vector: counts reach n = MAX_QUBITS.

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

from assqd.pauli import MAX_QUBITS

BIT_ORDERS = ("qubit0_first", "qubit0_last")

NORMALIZATION_ATOL = 1e-10


def _check_states(states: np.ndarray, weights: np.ndarray, n: int) -> None:
    """Refuse states that are not ascending int64 in [0, 2^n), one weight each."""
    if not (isinstance(states, np.ndarray) and states.dtype == np.int64
            and states.ndim == 1 and len(states) and 1 <= n <= MAX_QUBITS):
        raise ValueError(f"states must be a nonempty 1-D int64 array, n in [1, {MAX_QUBITS}]")
    # 1 << 63 overflows int64, so the largest state is shifted down instead.
    if np.any(states[1:] <= states[:-1]) or states[0] < 0 or states[-1] >> n:
        raise ValueError(f"states must be strictly ascending within [0, 2^{n})")
    if not isinstance(weights, np.ndarray) or weights.shape != states.shape:
        raise ValueError("weights must be an array of one weight per state")


@dataclass(frozen=True, eq=False)
class ProbabilityModel:
    """Normalized outcome distribution: its support and their probabilities."""

    states: np.ndarray
    probs: np.ndarray
    n: int

    def __post_init__(self) -> None:
        _check_states(self.states, self.probs, self.n)
        # A NaN fails every comparison, so test finiteness before the sign.
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("probabilities must be finite")
        if np.any(self.probs < 0):
            raise ValueError("probabilities must be nonnegative")
        total = float(self.probs.sum())
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")


@dataclass(frozen=True, eq=False)
class CountsMultiset:
    """Observed measurement outcomes: states and their positive counts."""

    states: np.ndarray
    counts: np.ndarray
    n: int

    def __post_init__(self) -> None:
        _check_states(self.states, self.counts, self.n)
        if self.counts.dtype != np.int64 or np.any(self.counts <= 0):
            raise ValueError("counts must be positive int64")


def contaminated_distribution(
    psi0: np.ndarray, psi1: np.ndarray, eta: float
) -> ProbabilityModel:
    """Mix the Born distributions of two states with weight eta on psi1."""
    psi0 = np.asarray(psi0)
    psi1 = np.asarray(psi1)
    if psi0.shape != psi1.shape:
        raise ValueError("state vectors must share one dimension")
    dim = psi0.size
    if psi0.ndim != 1 or dim < 2 or dim & (dim - 1):
        raise ValueError(f"state vectors must be 1-D of power-of-two length, got {psi0.shape}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    # A non-finite or overflowing amplitude, or two zero vectors, is
    # rejected here, before the division would warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        probs = (1.0 - eta) * np.abs(psi0) ** 2 + eta * np.abs(psi1) ** 2
    total = probs.sum()
    if not (np.isfinite(probs).all() and total > 0.0):
        raise ValueError("mixed probabilities must be finite with a positive sum")
    # Renormalize away float rounding by the sum over all 2^n entries; a sum
    # over the support alone would pair terms differently.  Zeros are dropped.
    probs /= total
    support = np.flatnonzero(probs)
    return ProbabilityModel(support, probs[support], dim.bit_length() - 1)


def sample_counts(model: ProbabilityModel, shots: int, seed: int) -> CountsMultiset:
    """Draw shots outcomes by inverse CDF over the model's states."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    cdf = np.cumsum(model.probs)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    draws = np.searchsorted(cdf, rng.random(shots), side="right")
    tallies = np.bincount(draws, minlength=model.states.shape[0])
    drawn = tallies > 0
    return CountsMultiset(model.states[drawn], tallies[drawn], model.n)


def _key_to_state(key: str, n: int, bit_order: str) -> int:
    if len(key) != n:
        raise ValueError(f"key {key!r} has length {len(key)}, expected {n}")
    if any(ch not in "01" for ch in key):
        raise ValueError(f"key {key!r} contains non-binary characters")
    if bit_order == "qubit0_first":
        return int(key[::-1], 2)
    return int(key, 2)


def _state_to_key(state: int, n: int, bit_order: str) -> str:
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
    pairs = []
    for key, value in raw.items():
        state = _key_to_state(key, n, bit_order)
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise ValueError(f"count for key {key!r} must be a positive integer")
        if value > np.iinfo(np.int64).max:
            raise ValueError(f"count for key {key!r} exceeds 2**63 - 1")
        pairs.append((state, value))
    states, counts = (np.array(column, dtype=np.int64) for column in zip(*sorted(pairs)))
    return CountsMultiset(states, counts, n)


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
    keyed = {_state_to_key(state, counts.n, bit_order): count for state, count
             in zip(counts.states.tolist(), counts.counts.tolist())}
    return json.dumps(
        {"n": counts.n, "bit_order": bit_order, "counts": keyed}, indent=2
    )


def top_k(counts: CountsMultiset, K: int) -> np.ndarray:
    """The K most frequent states, ties broken by ascending state value."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return counts.states[np.lexsort((counts.states, -counts.counts))[:K]]
