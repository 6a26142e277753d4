"""Active-sampling sample-based quantum diagonalization.

Estimates ground-state energies of Pauli-string Hamiltonians from
finite-shot measurement counts: seed a subspace with the most frequent
bitstrings, then iteratively grow it by scoring candidate basis states
with a perturbation-theoretic acquisition function and rediagonalizing.

Importing the package sets the BLAS thread variables below to 1 where
they are unset: the eigensolvers' last bits follow the thread count, so
the output would follow the host's cores.  A user's own value wins, and
the pin cannot act where numpy was imported first.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from assqd.pauli import (  # noqa: E402  (after the thread pin)
    PauliHamiltonian,
    PauliTerm,
    load_hamiltonian,
    parse_hamiltonian,
)

__all__ = [
    "PauliHamiltonian",
    "PauliTerm",
    "load_hamiltonian",
    "parse_hamiltonian",
]

__version__ = "0.1.0"
