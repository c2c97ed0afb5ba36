"""Sparse multivariate polynomials, graded monomial bases and moment vectors.

A polynomial in n variables is stored as a dict mapping exponent tuples to
float coefficients; zero coefficients are never stored, and the zero
polynomial is the empty dict.  All code in this package relies on one fixed
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


class MonomialBasis:
    """All monomials in n variables of degree <= d, in the package order.

    Entry 0 is always the constant monomial.  len() equals C(n+d, d).
    """

    def __init__(self, n: int, d: int):
        if n < 1 or d < 0:
            raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
        self.n = n
        self.d = d
        exps: list[Exponent] = []
        for total in range(d + 1):
            exps.extend(_exact_grade(n, total))
        self.exponents: tuple[Exponent, ...] = tuple(exps)
        self.exp_array = np.array(exps, dtype=np.int64).reshape(len(exps), n)

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self) -> Iterator[Exponent]:
        return iter(self.exponents)

    def index_of(self, alpha: Exponent) -> int:
        alpha = tuple(alpha)
        if len(alpha) != self.n or min(alpha) < 0 or sum(alpha) > self.d:
            raise DegreeOverflowError(
                f"monomial {alpha} has degree {sum(alpha)} > basis degree {self.d}"
            )
        return int(monomial_index(alpha))


@lru_cache(maxsize=None)
def basis(n: int, d: int) -> MonomialBasis:
    return MonomialBasis(n, d)


class Polynomial:
    """Immutable sparse polynomial with float coefficients.

    Do not mutate `terms` after construction; every operation returns a new
    instance.  Supports +, -, * (poly or scalar) and ** with a nonnegative
    integer exponent.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponent, float] | None = None):
        if n < 1:
            raise ValueError("polynomial needs at least one variable")
        clean: dict[Exponent, float] = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for n={n}")
            c = float(coef)
            if c != 0.0:
                clean[exp] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n, {})

    @staticmethod
    def constant(n: int, c: float) -> "Polynomial":
        return Polynomial(n, {tuple([0] * n): c})

    @staticmethod
    def variable(n: int, i: int) -> "Polynomial":
        """The coordinate polynomial x_{i+1} (0-based index i)."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        e = [0] * n
        e[i] = 1
        return Polynomial(n, {tuple(e): 1.0})

    @staticmethod
    def quadratic(n: int, const: float = 0.0, lin=None, quad=None) -> "Polynomial":
        """const + lin . x + x^T quad x; quad[i, j] and quad[j, i] are summed.

        With C = [[const, lin], [0, quad]] the term of each pair a <= b is
        (C[a, b] + C[b, a]) x^(e_a + e_b), e_0 = 0 and e_i the unit rows, so
        the terms come as 1, x_1, ..., x_n and then the quadratic ones row by
        row.
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
        exps = units[rows] + units[cols]
        return Polynomial(n, dict(zip(map(tuple, exps.tolist()), coefs.tolist())))

    # ---- structure -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, alpha: Exponent) -> float:
        return self.terms.get(tuple(alpha), 0.0)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            s = out.get(exp, 0.0) + coef
            if s == 0.0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return Polynomial(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        other = self._coerce(other)
        out: dict[Exponent, float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, 0.0) + c1 * c2
                if s == 0.0:
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return Polynomial(self.n, out)

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
        if c == 0.0:
            return Polynomial.zero(self.n)
        return Polynomial(self.n, {e: c * v for e, v in self.terms.items()})

    def dilated(self, s) -> "Polynomial":
        """The substitution x_j -> s_j * x_j, reweighting each coefficient by s^e."""
        s = [float(v) for v in s]
        if len(s) != self.n:
            raise ValueError(f"dilation vector has {len(s)} entries for n={self.n}")
        out = {}
        for e, c in self.terms.items():
            w = c
            for sj, ej in zip(s, e):
                if ej:
                    w *= sj ** ej
            out[e] = w
        return Polynomial(self.n, out)

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
        return self.n == other.n and self.terms == other.terms

    # ---- evaluation ----------------------------------------------------

    def evaluate(self, x: Iterable[float]) -> float:
        x = tuple(float(v) for v in x)
        if len(x) != self.n:
            raise ValueError(f"point has {len(x)} coordinates, polynomial has n={self.n}")
        total = 0.0
        for exp, coef in self.terms.items():
            total += coef * math.prod(xi**e for xi, e in zip(x, exp) if e)
        return total

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i (0-based)."""
        out: dict[Exponent, float] = {}
        for exp, coef in self.terms.items():
            if exp[i] == 0:
                continue
            e = list(exp)
            c = coef * e[i]
            e[i] -= 1
            out[tuple(e)] = out.get(tuple(e), 0.0) + c
        return Polynomial(self.n, out)

    def gradient(self) -> tuple["Polynomial", ...]:
        return tuple(self.partial(i) for i in range(self.n))

    # ---- serialization -------------------------------------------------

    def to_json(self) -> list[dict]:
        """List of {"coef": float, "exp": [int, ...]} in the package order."""
        items = sorted(self.terms.items(), key=lambda t: (sum(t[0]), tuple(-e for e in t[0])))
        return [{"coef": c, "exp": list(e)} for e, c in items]

    @staticmethod
    def from_json(n: int, data: list[dict]) -> "Polynomial":
        terms: dict[Exponent, float] = {}
        for item in data:
            exp = tuple(int(e) for e in item["exp"])
            terms[exp] = terms.get(exp, 0.0) + float(item["coef"])
        return Polynomial(n, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, coef in sorted(
            self.terms.items(), key=lambda t: (sum(t[0]), tuple(-e for e in t[0]))
        ):
            mono = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e
            )
            parts.append(f"{coef:+g}" + (f"*{mono}" if mono else ""))
        return "".join(parts)


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
    def basis(self) -> MonomialBasis:
        return basis(self.n, self.two_k)

    def entry(self, alpha: Exponent) -> float:
        return float(self.values[self.basis.index_of(alpha)])

    def dilated(self, s) -> "MomentVector":
        """Moments of the pushforward x -> s*x: each entry scaled by s^alpha."""
        s = np.asarray(s, dtype=float)
        weights = np.prod(s[None, :] ** self.basis.exp_array, axis=1)
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
    idx = y.basis.index_of
    return float(sum(c * y.values[idx(e)] for e, c in f.terms.items()))


def lift(x: Iterable[float], two_k: int) -> MomentVector:
    """Moment vector of the Dirac measure at x, truncated at degree two_k."""
    x = np.asarray(tuple(float(v) for v in x), dtype=float)
    b = basis(len(x), two_k)
    with np.errstate(invalid="ignore"):
        vals = np.prod(np.power(x[None, :], b.exp_array), axis=1)
    return MomentVector(len(x), two_k, vals)
