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

Moment vectors pair against polynomials of degree up to their truncation
order; `lift` embeds a point x as the moment vector of the Dirac measure at
x, and `pairing(f, lift(x, 2k)) == f(x)` whenever deg f <= 2k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

Exponent = tuple[int, ...]


class DegreeOverflowError(ValueError):
    """Raised when a polynomial exceeds the degree a moment vector supports."""


def _exact_grade(n: int, total: int) -> Iterator[Exponent]:
    # First variable takes the largest share first, which yields the
    # lex-descending order inside one grade.
    if n == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _exact_grade(n - 1, total - head):
            yield (head,) + tail


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
    there are C(n+d, d) of them.  The array is cached and read-only.
    """
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    exps = [e for total in range(d + 1) for e in _exact_grade(n, total)]
    arr = np.array(exps, dtype=np.int64).reshape(len(exps), n)
    arr.flags.writeable = False
    return arr


class Polynomial:
    """Immutable sparse polynomial with float coefficients.

    The terms are two read-only arrays in the package order: `exps`, one
    exponent row per term (t x n int64), and `coefs`, their coefficients.
    No row repeats and no coefficient is zero; the zero polynomial has no
    rows.  `Polynomial(n, {exp: coef})` and `from_terms` build this form.
    Supports +, -, * (poly or scalar) and ** with a nonnegative integer
    exponent; every operation returns a new instance.
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

    # ---- structure -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        # the package order ends with a term of top degree
        return int(self.exps[-1].sum()) if len(self.exps) else 0

    @property
    def is_zero(self) -> bool:
        return not len(self.coefs)

    def max_abs_coeff(self) -> float:
        return float(np.abs(self.coefs).max(initial=0.0))

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

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        result = Polynomial.constant(self.n, 1.0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

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
    def from_json(n: int, data: list[dict]) -> "Polynomial":
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


@dataclass(frozen=True)
class MomentVector:
    """A vector of pseudo-moments indexed by basis(n, two_k)."""

    n: int
    two_k: int
    values: np.ndarray

    def __post_init__(self):
        b = basis(self.n, self.two_k)
        if len(self.values) != len(b):
            raise ValueError(
                f"moment vector needs {len(b)} entries for n={self.n}, 2k={self.two_k}, "
                f"got {len(self.values)}"
            )

    @property
    def basis(self) -> np.ndarray:
        return basis(self.n, self.two_k)

    def dilated(self, s) -> "MomentVector":
        """Moments of the pushforward x -> s*x: each entry scaled by s^alpha."""
        weights = _monomials(np.asarray(s, dtype=float), self.basis)
        return MomentVector(self.n, self.two_k, self.values * weights)


def violation(x, equations: Iterable[Polynomial], inequalities: Iterable[Polynomial]) -> float:
    """How far x is from {p = 0, q >= 0}: the worst |p(x)| and the worst -q(x), or 0."""
    err = 0.0
    for p in equations:
        err = max(err, abs(p.evaluate(x)))
    for q in inequalities:
        err = max(err, -q.evaluate(x))
    return err


def pairing(f: Polynomial, y: MomentVector) -> float:
    """Riesz pairing <f, y> = sum_alpha f_alpha * y_alpha.

    Requires deg f <= y.two_k; raises DegreeOverflowError otherwise.
    """
    if f.n != y.n:
        raise ValueError(f"polynomial has n={f.n}, moment vector has n={y.n}")
    if f.degree > y.two_k:
        raise DegreeOverflowError(f"polynomial of degree {f.degree} > moment degree {y.two_k}")
    return _sum_in_order(f.coefs * y.values[monomial_index(f.exps)])


def lift(x: Iterable[float], two_k: int) -> MomentVector:
    """Moment vector of the Dirac measure at x, truncated at degree two_k."""
    x = np.asarray(tuple(float(v) for v in x), dtype=float)
    return MomentVector(len(x), two_k, _monomials(x, basis(len(x), two_k)))
