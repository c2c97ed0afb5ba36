"""OpenBLAS thread counts: one thread for a solve, all of them for large factorizations.

An IPM iteration makes many small LAPACK calls (per-block Cholesky, SVD and
eigvalsh with s <= 210, the Schur chunks' products), and on those a second
OpenBLAS thread costs more in hand-off than it saves.  Only two calls of
`sdpbackend.ReferenceIpm._factor` gain from more threads, and only once m is
large: the Cholesky of the m x m Schur matrix H = R^T R and W = R^-T A^T for
p equality rows.  Their median time in ms on a 2-core Xeon (scipy's
OpenBLAS 0.3.30, random SPD H, 1 and 2 threads interleaved, the switch of
thread count included):

    m     p     1 thread   2 threads
    210   30       0.54       0.52
    495   70       3.9        3.2
    1000  140     22.5       15.4
    1716  254     90         56
    3003  430    378        239

So `sdpbackend.solve` sets the rule for its setup and iterations, for the
command line and a library caller alike: it enters `one_blas_thread`, which
puts each loaded OpenBLAS on one thread and yields the counts it had, and
`sdpbackend` hands those back through `all_blas_threads` around the two
calls when m >= `sdpbackend._PARALLEL_M`.  With OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS set to a non-empty value the user's
setting stands and no count is changed.  The counts belong to the process,
so two solves on two Python threads of one process interleave their pins.

When the two calls run on more than one thread, `sdpbackend` also assembles
H of such an SDP on two Python threads, each running single-threaded
OpenBLAS calls; with a count of one, set by the user or the machine, it
assembles on one.  After a parallel call, an OpenBLAS worker spins for its
thread timeout, by default 2^28 cycles, before it sleeps, and a worker
spinning beside the assembly's second thread takes back what that thread
saves.  So importing polyvi sets OPENBLAS_THREAD_TIMEOUT=4 (2^4 cycles)
unless it or GOTO_THREAD_TIMEOUT is set; OpenBLAS reads it when it loads,
and scipy's, which runs the parallel calls, loads after that import.  To
keep OpenBLAS's own timeout, set either variable before starting Python.
One m=1716 assembly right after a 2-thread Cholesky, median ms of 15 per
process over 3 processes on the host above:

    timeout        1 thread    2 threads
    2^28 cycles    49-65       50-67
    2^4 cycles     51-67       36-39
"""

import contextlib
import ctypes
import functools
import os

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# numpy's wheels bundle libscipy_openblas64_, scipy's libscipy_openblas
_THREAD_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)

@functools.cache
def _openblas_libraries() -> tuple:
    """(file name, get, set) of the thread count of each loaded OpenBLAS.

    Looked up once per process, after numpy and scipy have loaded their
    libraries (`sdpbackend`'s imports have).
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh if "openblas" in line.lower()]
    except OSError:
        return ()
    libs = []
    for path in sorted({f[5].strip() for f in fields if len(f) == 6}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _THREAD_SYMBOLS:
            get = getattr(lib, pattern.format("get"), None)
            put = getattr(lib, pattern.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                libs.append((os.path.basename(path), get, put))
                break
    return tuple(libs)


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, keyed by library file name."""
    return {name: get() for name, get, _ in _openblas_libraries()}


@contextlib.contextmanager
def one_blas_thread():
    """Put every loaded OpenBLAS on one thread, and restore its count on exit.
    Yields (file name, set, count before) per library it pinned: none when a
    thread variable is set."""
    user_set = any(os.environ.get(v) for v in _THREAD_VARIABLES)
    libs = () if user_set else _openblas_libraries()
    pinned = tuple((name, put, get()) for name, get, put in libs)
    for _, put, _ in pinned:
        put(1)
    try:
        yield pinned
    finally:
        for _, put, count in pinned:
            put(count)


@contextlib.contextmanager
def all_blas_threads(pinned: tuple):
    """Run each library of `pinned`, as `one_blas_thread` yields it, at its
    count before the pin, and put it back on one thread on exit."""
    for _, put, count in pinned:
        put(count)
    try:
        yield
    finally:
        for _, put, _ in pinned:
            put(1)
