"""Benchmark Hamiltonians: disordered Heisenberg and TFIM rings.

Both families live on a periodic 1D chain with bonds (i, (i+1) mod n) for
i = 0..n-1.  At n = 2 this visits the single physical bond twice; the
duplicate terms merge into doubled couplings, which is kept as-is rather
than special-cased.  Random longitudinal fields are drawn from N(0, std^2)
with NumPy's seeded PCG64 generator, so a (kind, n, seed) triple pins the
instance exactly on one build; bit-exactness across NumPy versions or
languages is not promised, only per-build determinism.

The couplings are module constants, not per-instance settings: J = 1 on
every bond, a unit transverse drive for the TFIM and disorder std 0.5.
The metadata record (the CLI's `.meta.json` sidecar, and the key of the
benchmark's oracle cache) still carries them next to the drawn fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from assqd.pauli import PauliHamiltonian, PauliTerm

_KIND_CODES = {"heisenberg": 0, "tfim": 1}

J = 1.0
TRANSVERSE_FIELD = 1.0
DISORDER_STD = 0.5

# The couplings under the names the metadata record gives them.
_COUPLINGS = {
    "J": J, "transverse_field": TRANSVERSE_FIELD, "disorder_std": DISORDER_STD,
}

# Shortest ring: two sites, whose one bond is visited twice.
MIN_QUBITS = 2


@dataclass(frozen=True)
class ModelSpec:
    """Parameters pinning one benchmark instance."""

    kind: str
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.n < MIN_QUBITS:
            raise ValueError(f"need n >= {MIN_QUBITS}, got {self.n}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class DisorderInstance:
    """Drawn longitudinal fields plus the seed that generated them."""

    fields: tuple[float, ...]
    seed: int

    def __post_init__(self) -> None:
        if not all(np.isfinite(f) for f in self.fields):
            raise ValueError("disorder fields must be finite")


def draw_disorder(n: int, std: float, seed: int) -> DisorderInstance:
    """Draw n fields from N(0, std^2) using PCG64 seeded with seed."""
    if std < 0:
        raise ValueError("std must be >= 0")
    rng = np.random.default_rng(seed)
    fields = rng.normal(0.0, std, size=n) if std > 0 else np.zeros(n)
    return DisorderInstance(tuple(float(f) for f in fields), seed)


def heisenberg_chain(n: int, J: float, fields: DisorderInstance) -> PauliHamiltonian:
    """J(XX + YY + ZZ) on each ring bond plus h_i Z_i fields."""
    if len(fields.fields) != n:
        raise ValueError(f"expected {n} fields, got {len(fields.fields)}")
    terms = []
    for i in range(n):
        j = (i + 1) % n
        bond = (1 << i) | (1 << j)
        terms.append(PauliTerm(bond, 0, J))
        terms.append(PauliTerm(bond, bond, J))
        terms.append(PauliTerm(0, bond, J))
    for i, h_i in enumerate(fields.fields):
        terms.append(PauliTerm(0, 1 << i, h_i))
    return PauliHamiltonian(n, terms)


def tfim_chain(
    n: int, J: float, h_x: float, fields: DisorderInstance
) -> PauliHamiltonian:
    """-J ZZ on each ring bond, -h_x X_i drive, g_i Z_i disorder."""
    if len(fields.fields) != n:
        raise ValueError(f"expected {n} fields, got {len(fields.fields)}")
    terms = []
    for i in range(n):
        j = (i + 1) % n
        terms.append(PauliTerm(0, (1 << i) | (1 << j), -J))
    for i in range(n):
        terms.append(PauliTerm(1 << i, 0, -h_x))
    for i, g_i in enumerate(fields.fields):
        terms.append(PauliTerm(0, 1 << i, g_i))
    return PauliHamiltonian(n, terms)


def _disorder_seed(spec: ModelSpec) -> int:
    """Derive the field seed from (kind, n, seed) so kinds draw independently."""
    ss = np.random.SeedSequence([spec.seed, spec.n, _KIND_CODES[spec.kind]])
    return int(ss.generate_state(1)[0])


def build_model(spec: ModelSpec) -> tuple[PauliHamiltonian, DisorderInstance]:
    """Draw the disorder for spec and assemble its Hamiltonian."""
    disorder = draw_disorder(spec.n, DISORDER_STD, _disorder_seed(spec))
    if spec.kind == "heisenberg":
        ham = heisenberg_chain(spec.n, J, disorder)
    else:
        ham = tfim_chain(spec.n, J, TRANSVERSE_FIELD, disorder)
    return ham, disorder


def metadata_record(spec: ModelSpec, disorder: DisorderInstance) -> dict[str, Any]:
    """JSON-ready sidecar pinning the instance: spec plus drawn fields."""
    return {
        "kind": spec.kind,
        "n": spec.n,
        "seed": spec.seed,
        **_COUPLINGS,
        "field_seed": disorder.seed,
        "fields": list(disorder.fields),
    }
