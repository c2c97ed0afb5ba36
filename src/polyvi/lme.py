"""Multiplier expressions for standard constraint geometries.

At a KKT point the multiplier vector is a function of the point itself
whenever the constraint gradients admit a polynomial left inverse: stacking
the gradients over diag(g_1..g_m) into a tall matrix G(x), any polynomial
matrix L(x) with L(x) G(x) = I_m turns the multipliers into polynomials
lambda_i(x) = (L(x) Fhat(x))_i with Fhat = (F, 0, ..., 0).  Only the first n
columns of L ever touch Fhat, so lambdas are assembled from the x-part rows.

The catalog covers the geometries the built-in problems and generators use:

    orthant              x >= 0 componentwise
    ball                 1 - |x|^2 >= 0
    ring                 |x|^2 - 1 >= 0 and 2 - |x|^2 >= 0
    quadric_with_linear  x^T B x = 1 with the linear cone
                         x_1 - x_2 - ... - x_n >= 0, x_i >= 0 (i >= 2)
    orthant_with_product x >= 0 with x_1 x_2 x_3 x_4 = 2 (carrier only: the
                         well-known closed-form multipliers for this fixture
                         do not come from an exact left inverse, so
                         verify_lme reports False and the KKT assembly uses
                         a dedicated degree-lowering rewrite)
    soc_quadric          x^T B x = 1 with x_n^2 - |x_bar|^2 >= 0; rational
                         multipliers with denominator 2 x_n > 0 on the set

Exactness of L G = I is checked symbolically by verify_lme.  Rational
multipliers are carried as (numerator, denominator) pairs; the KKT assembly
clears denominators without polynomial division.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .polycore import Polynomial

ORTHANT = "orthant"
BALL = "ball"
RING = "ring"
QUADRIC_LINEAR = "quadric_with_linear"
ORTHANT_PRODUCT = "orthant_with_product"
SOC_QUADRIC = "soc_quadric"

MATRIX_KINDS = (ORTHANT, BALL, RING, QUADRIC_LINEAR, ORTHANT_PRODUCT)
EXACT_MATRIX_KINDS = (ORTHANT, BALL, RING, QUADRIC_LINEAR)


class UnknownKind(ValueError):
    """No catalog entry under this name."""


class TemplateMismatch(ValueError):
    """The constraint system does not fit the requested catalog pattern."""


@dataclass(frozen=True)
class ConstraintSystem:
    """Constraints g_i with an equality/inequality split of the indices."""

    g: tuple[Polynomial, ...]
    eq_idx: tuple[int, ...]
    ineq_idx: tuple[int, ...]
    n: int

    def __post_init__(self):
        m = len(self.g)
        if sorted(self.eq_idx + self.ineq_idx) != list(range(m)):
            raise ValueError("eq_idx and ineq_idx must partition the constraint indices")
        for p in self.g:
            if p.n != self.n:
                raise ValueError("constraint arity mismatch")

    @property
    def m(self) -> int:
        return len(self.g)


@dataclass(frozen=True)
class LmeMatrix:
    """Polynomial left inverse candidate: m rows of length n + m."""

    rows: tuple[tuple[Polynomial, ...], ...]
    n: int

    @property
    def m(self) -> int:
        return len(self.rows)

    def lambdas(self, F: tuple[Polynomial, ...]) -> tuple[Polynomial, ...]:
        """Multiplier expressions L(x) (F, 0, .., 0); only x-part columns act."""
        out = []
        for row in self.rows:
            acc = Polynomial.zero(self.n)
            for j, f in enumerate(F):
                acc = acc + row[j] * f
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True)
class LmeSet:
    """Resolved multipliers; denoms[i] is None for polynomial lambdas."""

    lambdas: tuple[Polynomial, ...]
    denoms: tuple[Polynomial | None, ...] | None = None
    rewrite: str | None = None

    def denom(self, i: int) -> Polynomial | None:
        if self.denoms is None:
            return None
        return self.denoms[i]


@dataclass(frozen=True)
class KktSystem:
    """E (equations) and I (inequalities) describing the KKT variety."""

    equations: tuple[Polynomial, ...]
    inequalities: tuple[Polynomial, ...]
    n: int


# -- template checks ------------------------------------------------------


def _quadratic_form_matrix(p: Polynomial, n: int) -> np.ndarray:
    """Extract B from x^T B x - 1; raises TemplateMismatch on any other shape."""
    degs = p.exps.sum(axis=1)
    odd = degs[(degs != 0) & (degs != 2)]
    if len(odd):
        raise TemplateMismatch(f"quadric has a degree-{odd[0]} term")
    if not len(degs) or degs[0] != 0 or p.coefs[0] != -1.0:
        raise TemplateMismatch("quadric must have constant term -1")
    # each quadratic row is e_a + e_b with a <= b: a its first and b its last
    # nonzero position
    quad = p.exps[1:] > 0
    a = quad.argmax(axis=1)
    b = n - 1 - quad[:, ::-1].argmax(axis=1)
    w = np.where(a == b, p.coefs[1:], p.coefs[1:] / 2.0)
    b_mat = np.zeros((n, n))
    b_mat[a, b] = b_mat[b, a] = w
    return b_mat


# -- catalog ----------------------------------------------------------------


def normalize_kind(kind: str) -> str:
    key = "".join(ch for ch in kind.lower() if ch.isalnum())
    table = {
        "orthant": ORTHANT,
        "ball": BALL,
        "ring": RING,
        "quadricwithlinear": QUADRIC_LINEAR,
        "quadriclinear": QUADRIC_LINEAR,
        "orthantwithproduct": ORTHANT_PRODUCT,
        "orthantproduct": ORTHANT_PRODUCT,
        "socquadric": SOC_QUADRIC,
        "soc": SOC_QUADRIC,
    }
    if key not in table:
        raise UnknownKind(f"no multiplier template named {kind!r}")
    return table[key]


def _require(cond: bool, msg: str):
    if not cond:
        raise TemplateMismatch(msg)


def catalog_lme(kind: str, cs: ConstraintSystem) -> LmeMatrix:
    """The catalog L matrix for a recognized constraint pattern.

    Every template infers what it needs from the constraints themselves.
    """
    kind = normalize_kind(kind)
    n, m = cs.n, cs.m
    zero = Polynomial.zero(n)

    if kind == ORTHANT:
        _require(m == n and not cs.eq_idx, "orthant template needs g = (x_1, ..., x_n)")
        for i in range(n):
            _require(cs.g[i] == Polynomial.variable(n, i), f"constraint {i} is not x_{i + 1}")
        rows = tuple(
            tuple(Polynomial.constant(n, float(j == i)) for j in range(n))
            + tuple(zero for _ in range(m))
            for i in range(n)
        )
        return LmeMatrix(rows, n)

    if kind == BALL:
        _require(m == 1 and not cs.eq_idx, "ball template needs the single constraint 1 - |x|^2")
        _require(
            cs.g[0] == Polynomial.quadratic(n, 1.0, quad=-np.eye(n)), "constraint is not 1 - |x|^2"
        )
        row = tuple(Polynomial.variable(n, j).scale(-0.5) for j in range(n)) + (
            Polynomial.constant(n, 1.0),
        )
        return LmeMatrix((row,), n)

    if kind == RING:
        s = Polynomial.quadratic(n, quad=np.eye(n))
        _require(m == 2 and not cs.eq_idx, "ring template needs two inequalities")
        _require(cs.g[0] == s - 1.0, "first ring constraint is not |x|^2 - 1")
        _require(cs.g[1] == 2.0 - s, "second ring constraint is not 2 - |x|^2")
        two_minus = Polynomial.constant(n, 2.0) - s
        one_minus = Polynomial.constant(n, 1.0) - s
        x = [Polynomial.variable(n, j) for j in range(n)]
        row1 = tuple((two_minus * xj).scale(0.5) for xj in x) + (s - 1.0, s)
        row2 = tuple((one_minus * xj).scale(0.25) for xj in x) + (
            s.scale(0.5),
            (s + 1.0).scale(0.5),
        )
        return LmeMatrix((row1, row2), n)

    if kind == QUADRIC_LINEAR:
        _require(m == n + 1 and cs.eq_idx == (0,), "pattern: one quadric equality then the cone")
        b_mat = _quadratic_form_matrix(cs.g[0], n)
        lin = Polynomial.quadratic(n, lin=np.r_[1.0, -np.ones(n - 1)])
        _require(cs.g[1] == lin, "second constraint is not x_1 - x_2 - ... - x_n")
        for i in range(2, n + 1):
            _require(cs.g[i] == Polynomial.variable(n, i - 1), f"constraint {i} is not x_{i}")
        bx = [Polynomial.quadratic(n, lin=row) for row in b_mat]
        x = [Polynomial.variable(n, j) for j in range(n)]

        row0 = tuple(xj.scale(0.5) for xj in x) + (
            Polynomial.constant(n, -1.0),
        ) + tuple(Polynomial.constant(n, -0.5) for _ in range(n))

        def own_row(i: int):
            x_part = tuple(Polynomial.constant(n, float(j == i)) - bx[i] * x[j] for j in range(n))
            tail = (bx[i].scale(2.0),) + tuple(bx[i] for _ in range(n))
            return x_part, tail

        x1, t1 = own_row(0)
        rows = [row0, x1 + t1]
        for i in range(1, n):
            xi, ti = own_row(i)
            rows.append(
                tuple(a + b for a, b in zip(xi, x1)) + tuple(a + b for a, b in zip(ti, t1))
            )
        return LmeMatrix(tuple(rows), n)

    if kind == ORTHANT_PRODUCT:
        _require(n == 4 and m == 5 and cs.eq_idx == (0,), "pattern: product equality then orthant")
        prod_poly = Polynomial.constant(n, 2.0) - Polynomial(n, {(1, 1, 1, 1): 1.0})
        _require(cs.g[0] == prod_poly, "equality is not 2 - x1 x2 x3 x4")
        for i in range(1, 5):
            _require(cs.g[i] == Polynomial.variable(n, i - 1), f"constraint {i} is not x_{i}")
        # closed-form carrier; rows 1..4 admit no exact tail completion
        row0 = tuple(Polynomial.variable(n, j).scale(-0.125) for j in range(n)) + tuple(
            zero for _ in range(m)
        )
        rows = [row0]
        for i in range(n):
            rows.append(
                tuple(
                    Polynomial.constant(n, float(j == i)) - Polynomial.variable(n, j).scale(0.125)
                    for j in range(n)
                )
                + tuple(zero for _ in range(m))
            )
        return LmeMatrix(tuple(rows), n)

    raise UnknownKind(f"{kind} has no L-matrix template; use the recipe interface")


def soc_lme(F: tuple[Polynomial, ...], cs: ConstraintSystem) -> LmeSet:
    """Rational multipliers for the quadric + second-order-cone pattern."""
    n = cs.n
    _require(cs.m == 2 and cs.eq_idx == (0,), "pattern: quadric equality plus one cone inequality")
    b_mat = _quadratic_form_matrix(cs.g[0], n)
    cone = Polynomial.quadratic(n, quad=np.diag(np.r_[-np.ones(n - 1), 1.0]))
    _require(cs.g[1] == cone, "inequality is not x_n^2 - x_1^2 - ... - x_{n-1}^2")
    x_dot_f = Polynomial.zero(n)
    for j in range(n):
        x_dot_f = x_dot_f + Polynomial.variable(n, j) * F[j]
    lam0 = x_dot_f.scale(0.5)
    p1 = F[n - 1] - x_dot_f * Polynomial.quadratic(n, lin=b_mat[n - 1])
    q1 = Polynomial.variable(n, n - 1).scale(2.0)
    return LmeSet((lam0, p1), (None, q1))


def verify_lme(L: LmeMatrix, cs: ConstraintSystem, tol: float = 1e-12) -> bool:
    """Symbolically check L(x) G(x) = I_m coefficient by coefficient."""
    n, m = cs.n, cs.m
    if L.m != m or L.n != n:
        return False
    grads = [g.gradient() for g in cs.g]
    for i in range(m):
        for k in range(m):
            acc = Polynomial.zero(n)
            for j in range(n):
                acc = acc + L.rows[i][j] * grads[k][j]
            acc = acc + L.rows[i][n + k] * cs.g[k]
            target = acc - (1.0 if i == k else 0.0)
            if target.max_abs_coeff() > tol:
                return False
    return True


# -- recipes: how a problem instantiates lambdas for a given F --------------


@dataclass(frozen=True)
class LmeRecipe:
    """How to produce an LmeSet from an F vector.

    Candidate search instantiates with the symbolic field F(x); candidate
    verification re-instantiates with the constant vector F(u).  Explicit
    lambda lists cannot be re-instantiated, which callers must handle.
    """

    cs: ConstraintSystem
    kind: str | None = None
    matrix: LmeMatrix | None = None
    explicit: LmeSet | None = None

    @property
    def can_reinstantiate(self) -> bool:
        return self.explicit is None

    def instantiate(self, F: tuple[Polynomial, ...]) -> LmeSet:
        if self.explicit is not None:
            return self.explicit
        if self.kind == SOC_QUADRIC:
            return soc_lme(F, self.cs)
        lams = self.matrix.lambdas(F)
        rewrite = "orthant_product" if self.kind == ORTHANT_PRODUCT else None
        return LmeSet(lams, None, rewrite)


def recipe_from_spec(data: dict, cs: ConstraintSystem) -> LmeRecipe:
    """Parse the problem-file `lme` object: {kind}, {L}, or {lambdas, denoms}."""
    if "kind" in data:
        kind = normalize_kind(data["kind"])
        if kind == SOC_QUADRIC:
            probe = tuple(Polynomial.zero(cs.n) for _ in range(cs.n))
            soc_lme(probe, cs)  # template match check
            return LmeRecipe(cs, kind=kind)
        matrix = catalog_lme(kind, cs)
        return LmeRecipe(cs, kind=kind, matrix=matrix)
    if "L" in data:
        rows = tuple(
            tuple(Polynomial.from_json(cs.n, cell) for cell in row) for row in data["L"]
        )
        matrix = LmeMatrix(rows, cs.n)
        if not verify_lme(matrix, cs):
            raise TemplateMismatch("supplied L matrix is not an exact left inverse")
        return LmeRecipe(cs, matrix=matrix)
    if "lambdas" in data:
        lams = tuple(Polynomial.from_json(cs.n, item) for item in data["lambdas"])
        denoms = None
        if data.get("denoms") is not None:
            denoms = tuple(
                None if item is None else Polynomial.from_json(cs.n, item)
                for item in data["denoms"]
            )
        return LmeRecipe(cs, explicit=LmeSet(lams, denoms))
    raise ValueError("lme object needs one of: kind, L, lambdas")


# -- KKT variety assembly ------------------------------------------------------


def _product(polys: list[Polynomial], n: int) -> Polynomial:
    return reduce(lambda a, b: a * b, polys, Polynomial.constant(n, 1.0))


def build_kkt_sets(
    F: tuple[Polynomial, ...],
    cs: ConstraintSystem,
    lam: LmeSet,
) -> KktSystem:
    """Assemble E and I: stationarity, complementarity, and sign conditions.

    Rational multipliers are cleared: stationarity row t is multiplied by
    the product of the distinct non-unit denominators appearing in it, and
    complementarity uses the numerator (the denominators are positive on the
    feasible set by the template's contract).
    """
    n, m = cs.n, cs.m
    if len(F) != n or len(lam.lambdas) != m:
        raise ValueError("arity mismatch between F, constraints and multipliers")

    equations: list[Polynomial] = []

    if lam.rewrite == "orthant_product":
        lam_eq = lam.lambdas[cs.eq_idx[0]]
        for t in range(n):
            row = lam_eq * (Polynomial.constant(n, 2.0) - Polynomial.variable(n, t))
            if not row.is_zero:
                equations.append(row)
    else:
        grads = [g.gradient() for g in cs.g]
        for t in range(n):
            active = [i for i in range(m) if not grads[i][t].is_zero]
            distinct_qs: list[Polynomial] = []
            for i in active:
                q = lam.denom(i)
                if q is not None and all(q != prev for prev in distinct_qs):
                    distinct_qs.append(q)
            q_all = _product(distinct_qs, n)
            row = q_all * F[t]
            for i in active:
                q = lam.denom(i)
                if q is None:
                    factor = q_all
                else:
                    rest = list(distinct_qs)
                    rest.remove(next(p for p in rest if p == q))
                    factor = _product(rest, n)
                row = row - lam.lambdas[i] * factor * grads[i][t]
            if not row.is_zero:
                equations.append(row)

    for i in cs.ineq_idx:
        comp = lam.lambdas[i] * cs.g[i]
        if not comp.is_zero:
            equations.append(comp)
    for i in cs.eq_idx:
        if not cs.g[i].is_zero:
            equations.append(cs.g[i])

    inequalities: list[Polynomial] = []
    for i in cs.ineq_idx:
        if not lam.lambdas[i].is_zero:
            inequalities.append(lam.lambdas[i])
    for i in cs.ineq_idx:
        if not cs.g[i].is_zero:
            inequalities.append(cs.g[i])

    return KktSystem(tuple(equations), tuple(inequalities), n)
