"""Sparse multivariate polynomials, graded monomial bases and moment vectors.

A polynomial in n variables is stored as an array of exponent rows and an
array of float coefficients, one entry per term, with the rows in the
package monomial order; zero coefficients are never stored, and the zero
polynomial has no rows.  All code in this package relies on this one fixed
monomial order: monomials are sorted by total degree first, and within one
degree lexicographically with earlier variables dominating, so for n=2, d=2
the order is 1, x1, x2, x1^2, x1*x2, x2^2.  With this order the basis for
degree d is a prefix of the basis for degree d+1, which the moment code
exploits when it truncates moment matrices.

A moment vector truncated at degree d is a plain array indexed like
basis(n, d), so entry monomial_index(a) holds the moment of x^a, and the
Riesz functional of y is L_y(f) = f.coefs @ y[monomial_index(f.exps)] for
deg f <= d.  `lift` gives the moments of the Dirac measure at x, at which
L_y(f) is f(x) up to rounding.

`dot(a, b, n)` is the sum of the products a_j * b_j, added to the zero
polynomial one at a time in order: the multiplier expressions L F, the
check L G = I and the cuts (v - x)^T F are all built with it.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

Exponent = tuple[int, ...]

# the largest total degree of a term that a problem file may give: even in
# one variable, a relaxation of that degree needs more than 10^4 moments
MAX_DEGREE = 10_000


def is_int(value) -> bool:
    """Whether value is an integer and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@lru_cache(maxsize=None)
def _binomials(rows: int, cols: int) -> np.ndarray:
    return np.array([[math.comb(i, j) for j in range(cols)] for i in range(rows)], dtype=np.int64)


def monomial_index(exps) -> np.ndarray:
    """Position of each exponent (the last axis of `exps`) in the package order.

    Every basis is a prefix of the next one, so the position of a monomial is
    the same in every basis that holds it.  With suffix sums
    s_j = a_j + ... + a_{n-1}, the monomials before a are C(s_0 + n - 1, n)
    of lower degree plus, for each j >= 1, the C(s_j + n - j - 1, n - j) of
    the same degree that agree with a in the first j - 1 exponents and exceed
    it in exponent j - 1 (0-based).
    """
    exps = np.asarray(exps, dtype=np.int64)
    n = exps.shape[-1]
    j = np.arange(n)
    top = np.cumsum(exps[..., ::-1], axis=-1)[..., ::-1] + (n - 1 - j)
    table = _binomials(int(top.max(initial=0)) + 1, n + 1)
    return table[top, n - j].sum(axis=-1)


@lru_cache(maxsize=None)
def basis(n: int, d: int) -> np.ndarray:
    """All monomials in n variables of degree <= d, one exponent row each.

    The rows follow the package order, row 0 is the constant monomial, and
    there are C(n+d, d) of them.  The array is cached and read-only.  Every
    monomial of degree d is one of degree d - 1 times a variable, so the rows
    are basis(n, d - 1) and its rows shifted by each unit vector, each kept
    once and sorted by monomial_index.
    """
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    if d == 0:
        arr = np.zeros((1, n), dtype=np.int64)
    else:
        prev = basis(n, d - 1)
        shifted = prev[:, None, :] + np.eye(n, dtype=np.int64)
        rows = np.vstack([prev, shifted.reshape(-1, n)])
        _, first = np.unique(monomial_index(rows), return_index=True)
        arr = rows[first]
    arr.flags.writeable = False
    return arr


class Polynomial:
    """Immutable sparse polynomial with float coefficients.

    The terms are two read-only arrays in the package order: `exps`, one
    exponent row per term (t x n int64), and `coefs`, their coefficients.
    No row repeats and no coefficient is zero; the zero polynomial has no
    rows.  `Polynomial(n, {exp: coef})` and `from_terms` build this form.
    Supports +, -, and * (poly or scalar); every operation returns a new
    instance.
    """

    __slots__ = ("n", "exps", "coefs")

    def __init__(self, n: int, terms: Mapping[Exponent, float] | None = None):
        terms = terms or {}
        self._normalize(n, list(terms), list(terms.values()))

    def _normalize(self, n: int, exps, coefs):
        if n < 1:
            raise ValueError("polynomial needs at least one variable")
        coefs = np.asarray(coefs, dtype=float)
        exps = np.asarray(exps) if np.size(exps) else np.zeros((0, n), dtype=np.int64)
        if exps.dtype.kind != "i" or exps.shape != (len(coefs), n) or exps.min(initial=0) < 0:
            raise ValueError(f"bad {exps.dtype} exponents of shape {exps.shape} for n={n}")
        # np.add.at adds in input order, so repeated rows sum left to right
        keys, first, inverse = np.unique(
            monomial_index(exps), return_index=True, return_inverse=True
        )
        sums = np.zeros(len(keys))
        np.add.at(sums, inverse, coefs)
        keep = sums != 0.0
        exps, coefs = exps[first[keep]].astype(np.int64), sums[keep]
        exps.flags.writeable = coefs.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "coefs", coefs)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_terms(cls, n: int, exps, coefs) -> "Polynomial":
        """sum_i coefs[i] * x^exps[i]: repeated rows summed in input order,
        exact zeros dropped, the rest sorted into the package order."""
        p = cls.__new__(cls)
        p._normalize(n, exps, coefs)
        return p

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n)

    @staticmethod
    def constant(n: int, c: float) -> "Polynomial":
        return Polynomial.from_terms(n, np.zeros((1, n), dtype=np.int64), [c])

    @staticmethod
    def variable(n: int, i: int) -> "Polynomial":
        """The coordinate polynomial x_{i+1} (0-based index i)."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        return Polynomial.from_terms(n, np.eye(1, n, i, dtype=np.int64), [1.0])

    @staticmethod
    def quadratic(n: int, const: float = 0.0, lin=None, quad=None) -> "Polynomial":
        """const + lin . x + x^T quad x; quad[i, j] and quad[j, i] are summed.

        With C = [[const, lin], [0, quad]] the term of each pair a <= b is
        (C[a, b] + C[b, a]) x^(e_a + e_b), e_0 = 0 and e_i the unit rows;
        the pairs a <= b, row by row, already come in the package order.
        """
        c_mat = np.zeros((n + 1, n + 1))
        c_mat[0, 0] = const
        if lin is not None:
            c_mat[0, 1:] = lin
        if quad is not None:
            c_mat[1:, 1:] = quad
        rows, cols = np.triu_indices(n + 1)
        coefs = np.where(rows == cols, c_mat[rows, cols], c_mat[rows, cols] + c_mat[cols, rows])
        units = np.eye(n + 1, n, -1, dtype=np.int64)
        return Polynomial.from_terms(n, units[rows] + units[cols], coefs)

    def quadratic_parts(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(const, lin, quad) with quad symmetric: the inverse of `quadratic`.

        Each term x^e is e_a + e_b for the pair a <= b that pads e with
        2 - |e| in front: a is its first nonzero position, b its last.
        """
        if self.degree > 2:
            raise ValueError(f"degree-{self.degree} polynomial has no quadratic parts")
        padded = np.hstack([2 - self.exps.sum(axis=1, keepdims=True), self.exps]) > 0
        c_mat = np.zeros((self.n + 1, self.n + 1))
        c_mat[padded.argmax(axis=1), self.n - padded[:, ::-1].argmax(axis=1)] = self.coefs
        upper = c_mat[1:, 1:]
        return float(c_mat[0, 0]), c_mat[0, 1:], (upper + upper.T) / 2.0

    # ---- structure -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        # the package order ends with a term of top degree
        return int(self.exps[-1].sum()) if len(self.exps) else 0

    @property
    def is_zero(self) -> bool:
        return not len(self.coefs)

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return Polynomial.from_terms(
            self.n, np.vstack([self.exps, other.exps]), np.concatenate([self.coefs, other.coefs])
        )

    __radd__ = __add__

    def __neg__(self):
        return Polynomial.from_terms(self.n, self.exps, -self.coefs)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        other = self._coerce(other)
        # row-major: term i of self times every term of other, then i + 1
        exps = self.exps[:, None, :] + other.exps[None, :, :]
        return Polynomial.from_terms(
            self.n, exps.reshape(-1, self.n), np.outer(self.coefs, other.coefs).ravel()
        )

    __rmul__ = __mul__

    def scale(self, c: float) -> "Polynomial":
        return Polynomial.from_terms(self.n, self.exps, c * self.coefs)

    def dilated(self, s) -> "Polynomial":
        """The substitution x_j -> s_j * x_j, reweighting each coefficient by s^e."""
        s = np.asarray(s, dtype=float)
        if s.shape != (self.n,):
            raise ValueError(f"dilation vector has {len(s)} entries for n={self.n}")
        return Polynomial.from_terms(self.n, self.exps, self.coefs * _monomials(s, self.exps))

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError(f"mixing polynomials with n={self.n} and n={other.n}")
            return other
        if isinstance(other, (int, float)):
            return Polynomial.constant(self.n, float(other))
        raise TypeError(f"cannot combine Polynomial with {type(other)!r}")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.exps, other.exps)
            and np.array_equal(self.coefs, other.coefs)
        )

    # ---- evaluation ----------------------------------------------------

    def evaluate(self, x: Iterable[float]) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point has {len(x)} coordinates, polynomial has n={self.n}")
        return _sum_in_order(self.coefs * _monomials(x, self.exps))

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i (0-based)."""
        power = self.exps[:, i]
        keep = power > 0
        unit = np.eye(1, self.n, i, dtype=np.int64)
        return Polynomial.from_terms(self.n, self.exps[keep] - unit, (self.coefs * power)[keep])

    def gradient(self) -> tuple["Polynomial", ...]:
        return tuple(self.partial(i) for i in range(self.n))

    # ---- serialization -------------------------------------------------

    def to_json(self) -> list[dict]:
        """List of {"coef": float, "exp": [int, ...]} in the package order."""
        return [
            {"coef": c, "exp": e} for c, e in zip(self.coefs.tolist(), self.exps.tolist())
        ]

    @staticmethod
    def from_json(n: int, data: list[dict], where: str = "polynomial") -> "Polynomial":
        """The polynomial of a list of {"coef", "exp"} terms; anything else
        raises a ValueError that names `where` and the term."""
        if not isinstance(data, list):
            raise ValueError(f"{where}: expected a list of terms")
        for i, item in enumerate(data):
            if not isinstance(item, dict) or "coef" not in item or "exp" not in item:
                raise ValueError(f"{where}, term {i}: need 'coef' and 'exp'")
            exp, coef = item["exp"], item["coef"]
            if not isinstance(exp, list) or len(exp) != n:
                raise ValueError(
                    f"{where}, term {i}: exponent must be a list of n={n} integers, got {exp!r}"
                )
            if not all(is_int(e) and e >= 0 for e in exp):
                raise ValueError(
                    f"{where}, term {i}: exponents must be integers >= 0, got {exp!r}"
                )
            if sum(exp) > MAX_DEGREE:
                raise ValueError(
                    f"{where}, term {i}: total degree must be at most {MAX_DEGREE}, got {exp!r}"
                )
            # NaN fails the comparison; an int past the float range fails it too
            number = is_int(coef) or isinstance(coef, float)
            if not number or not abs(coef) <= sys.float_info.max:
                raise ValueError(
                    f"{where}, term {i}: coefficient must be a finite number, got {coef!r}"
                )
        return Polynomial.from_terms(
            n, [item["exp"] for item in data], [item["coef"] for item in data]
        )

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for exp, coef in zip(self.exps.tolist(), self.coefs.tolist()):
            mono = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e
            )
            parts.append(f"{coef:+g}" + (f"*{mono}" if mono else ""))
        return "".join(parts)


def _monomials(x: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """x^e for each exponent row e, the factors multiplied left to right."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.prod(np.power(x, exps), axis=1)


def _sum_in_order(values: np.ndarray) -> float:
    # a left-to-right sum; np.sum and BLAS dots group terms differently
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def dot(a: Iterable[Polynomial], b: Iterable[Polynomial], n: int) -> Polynomial:
    """sum_j a_j * b_j over the shorter of a and b, added left to right."""
    acc = Polynomial.zero(n)
    for p, q in zip(a, b):
        acc = acc + p * q
    return acc


def violation(x, equations: Iterable[Polynomial], inequalities: Iterable[Polynomial]) -> float:
    """How far x is from {p = 0, q >= 0}: the worst |p(x)| and the worst -q(x), or 0."""
    err = 0.0
    for p in equations:
        err = max(err, abs(p.evaluate(x)))
    for q in inequalities:
        err = max(err, -q.evaluate(x))
    return err


def lift(x: Iterable[float], d: int) -> np.ndarray:
    """The moments x^a of the Dirac measure at x, a over basis(len(x), d)."""
    x = np.asarray(tuple(float(v) for v in x), dtype=float)
    return _monomials(x, basis(len(x), d))
