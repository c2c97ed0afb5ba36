"""polyvi: polynomial variational inequalities via moment relaxations.

Submodules:
    polycore   sparse polynomials, graded bases, moment vectors
    sdpbackend reference semidefinite solver (dense interior point)
    momentsdp  moment relaxations, hierarchy driver, minimizer extraction
    lme        multiplier expressions and KKT set assembly
    vipsolver  candidate search / verification / enumeration loops
    cli        the `polyvi` command line tool

Ready-made problem files live in fixtures/ at the repository root.
"""

from .polycore import (
    DegreeOverflowError,
    MomentVector,
    Polynomial,
    basis,
    lift,
    pairing,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeOverflowError",
    "MomentVector",
    "Polynomial",
    "basis",
    "lift",
    "pairing",
    "__version__",
]
