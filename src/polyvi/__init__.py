"""polyvi: polynomial variational inequalities via moment relaxations.

Submodules:
    polycore   sparse polynomials, graded bases, Dirac moments (lift)
    sdpbackend reference semidefinite solver (dense interior point)
    momentsdp  moment relaxations, hierarchy driver, minimizer extraction
    lme        multiplier expressions and KKT set assembly
    vipsolver  candidate search / verification / enumeration loops
    cli        the `polyvi` command line tool

Ready-made problem files live in fixtures/ at the repository root.

Importing polyvi sets OPENBLAS_THREAD_TIMEOUT to 4 when neither it nor
GOTO_THREAD_TIMEOUT is set, before numpy or scipy load here: the idle
workers of an OpenBLAS loaded after that sleep right after each parallel
call instead of spinning beside the Schur assembly's second thread (the
`blas` module says more).
"""

import os

if "GOTO_THREAD_TIMEOUT" not in os.environ:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .polycore import Polynomial, basis, lift  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "basis",
    "lift",
    "__version__",
]
