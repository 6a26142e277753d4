"""Active-sampling sample-based quantum diagonalization.

Estimates ground-state energies of Pauli-string Hamiltonians from
finite-shot measurement counts: seed a subspace with the most frequent
bitstrings, then iteratively grow it by scoring candidate basis states
with a perturbation-theoretic acquisition function and rediagonalizing.
"""

from assqd.pauli import (
    BasisState,
    PauliHamiltonian,
    PauliTerm,
    load_hamiltonian,
    parse_hamiltonian,
)

__all__ = [
    "BasisState",
    "PauliHamiltonian",
    "PauliTerm",
    "load_hamiltonian",
    "parse_hamiltonian",
]

__version__ = "0.1.0"
