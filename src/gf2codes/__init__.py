"""Exact analysis of binary linear codes.

Bit-packed GF(2) linear algebra, exhaustive weight distributions, the
dual-distribution transform, code surgery (projection, shortening,
hyperplane subcodes), power-moment identities with an exact feasibility
test, machine-checked replays of dimension-bound arguments, and an
exhaustive search over small codes.

The package exports each module's ``__all__``.
"""

from . import codes, gf2core, moments, prover, search, transforms
from .codes import *
from .gf2core import *
from .moments import *
from .prover import *
from .search import *
from .transforms import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (codes, gf2core, moments, prover, search, transforms)
    for name in module.__all__
]
