"""Multiplier expressions for standard constraint geometries.

At a KKT point the multiplier vector is a function of the point itself
whenever the constraint gradients admit a polynomial left inverse: stacking
the gradients over diag(g_1..g_m) into a tall matrix G(x), any polynomial
matrix L(x) with L(x) G(x) = I_m turns the multipliers into polynomials
lambda_i(x) = (L(x) Fhat(x))_i with Fhat = (F, 0, ..., 0).  L is held as
its m rows, each a tuple of n + m polynomials; `lambdas(rows, F)` forms
L Fhat from the first n entries of each row, the only ones Fhat touches.

The catalog covers the geometries the built-in problems and generators use.
`template(kind, n, B)` spells the constraints of each, in this order, and is
the only place they are built: `catalog_lme` and `soc_lme` accept a system
only when it equals its template constraint by constraint (B read from the
first constraint of the quadric kinds), and the generators of `cli` write
the template's constraints.

    orthant              x >= 0 componentwise
    ball                 1 - |x|^2 >= 0
    ring                 |x|^2 - 1 >= 0 and 2 - |x|^2 >= 0
    quadric_with_linear  x^T B x = 1 with the linear cone
                         x_1 - x_2 - ... - x_n >= 0, x_i >= 0 (i >= 2)
    orthant_with_product x >= 0 with x_1 x_2 x_3 x_4 = 2 (carrier only: its
                         closed-form multipliers are not an exact left
                         inverse, so verify_lme reports False and the KKT
                         assembly uses a dedicated degree-lowering rewrite.
                         That rewrite keeps only the KKT points with F = 0
                         and so loses solutions.  An exact left inverse
                         exists: with P_t = prod_{j != t} x_j, row 0 is
                         (-x_j/8 | 1/2, 1/8 x4) and row t is
                         (delta_tj - x_j P_t/8 | P_t/2, P_t/8 x4))
    soc_quadric          x^T B x = 1 in the cone nappe x_n^2 - |x_bar|^2 >= 0,
                         x_n >= 0; rational multipliers with denominator
                         2 x_n > 0 on the set, and x_n >= 0's multiplier 0

`catalog_lme` takes every kind's rows from pieces it builds once per call,
and only for a kind that reads them: the variables x, the unit rows e_i and
the zero tail.  `verify_lme(rows, cs)` checks L G = I coefficient by
coefficient.  Multipliers are numerators over one shared denominator, which
only `soc_lme` makes (2 x_n, positive on its set); the KKT assembly
(`build_kkt_sets`) clears it without polynomial division by multiplying
every stationarity row by it, and drops zero polynomials, with stationarity
rows that are only rounding noise, once, at the end.
A problem's multipliers are built once, for its field F (lme_from_spec);
they serve the search relaxations only, since candidate verification
relaxes the comparison problem over X directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polycore import Polynomial, dot

ORTHANT = "orthant"
BALL = "ball"
RING = "ring"
QUADRIC_LINEAR = "quadric_with_linear"
ORTHANT_PRODUCT = "orthant_with_product"
SOC_QUADRIC = "soc_quadric"
# the names a problem file's {"kind": ...} may give, spelled exactly so
KINDS = (ORTHANT, BALL, RING, QUADRIC_LINEAR, ORTHANT_PRODUCT, SOC_QUADRIC)
# the keys of the forms of a problem file's lme object
_LME_FORMS = ({"kind"}, {"L"})
# the largest coefficient of L G - I that verify_lme takes for zero
VERIFY_TOL = 1e-12
# a stationarity row whose largest coefficient is at most this times the
# largest of the terms it is the difference of counts as zero
CANCEL_TOL = 1e-12


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
class LmeSet:
    """Resolved multipliers lambda_i = lambdas[i] / denom; a denom of None
    stands for 1."""

    lambdas: tuple[Polynomial, ...]
    denom: Polynomial | None = None
    rewrite: str | None = None


@dataclass(frozen=True)
class KktSystem:
    """E (equations) and I (inequalities) describing the KKT variety."""

    equations: tuple[Polynomial, ...]
    inequalities: tuple[Polynomial, ...]


# -- catalog ----------------------------------------------------------------


def template(kind: str, n: int, b_mat=None) -> ConstraintSystem:
    """The constraints of catalog geometry `kind` in n variables, the one
    place each is spelled; the quadric kinds begin with x^T b_mat x - 1 = 0."""
    if kind not in KINDS:
        raise UnknownKind(f"no multiplier template {kind!r}; choose from {', '.join(KINDS)}")
    if kind == BALL:
        return ConstraintSystem((Polynomial.quadratic(n, 1.0, quad=-np.eye(n)),), (), (0,), n)
    if kind == RING:
        s = Polynomial.quadratic(n, quad=np.eye(n))
        return ConstraintSystem((s - 1.0, 2.0 - s), (), (0, 1), n)
    x = tuple(Polynomial.variable(n, j) for j in range(n))
    if kind == ORTHANT:
        return ConstraintSystem(x, (), tuple(range(n)), n)
    if kind == ORTHANT_PRODUCT:
        if n != 4:
            raise TemplateMismatch(f"{kind} template needs n = 4, got n = {n}")
        prod_poly = Polynomial.constant(n, 2.0) - Polynomial(n, {(1, 1, 1, 1): 1.0})
        return ConstraintSystem((prod_poly, *x), (0,), (1, 2, 3, 4), n)
    quadric = Polynomial.quadratic(n, -1.0, quad=b_mat)
    if kind == QUADRIC_LINEAR:
        lead = Polynomial.quadratic(n, lin=np.r_[1.0, -np.ones(n - 1)])
        return ConstraintSystem((quadric, lead, *x[1:]), (0,), tuple(range(1, n + 1)), n)
    cone = Polynomial.quadratic(n, quad=np.diag(np.r_[-np.ones(n - 1), 1.0]))
    return ConstraintSystem((quadric, cone, x[n - 1]), (0,), (1, 2), n)


def _quadratic_form_matrix(p: Polynomial) -> np.ndarray:
    """The symmetric B of the degree-2 terms of p."""
    two = p.exps.sum(axis=1) == 2
    return Polynomial.from_terms(p.n, p.exps[two], p.coefs[two]).quadratic_parts()[2]


def _match(kind: str, cs: ConstraintSystem) -> np.ndarray | None:
    """B when cs is template(kind, n, B), B read from its first constraint
    for the quadric kinds (None for the others); else TemplateMismatch
    naming the first difference."""
    b_mat = None
    if kind in (QUADRIC_LINEAR, SOC_QUADRIC):
        b_mat = _quadratic_form_matrix(cs.g[0]) if cs.m else np.zeros((cs.n, cs.n))
    want = template(kind, cs.n, b_mat)
    if (cs.m, cs.eq_idx) != (want.m, want.eq_idx):
        listed = ", ".join(
            f"{g!r} {'=' if i in want.eq_idx else '>='} 0" for i, g in enumerate(want.g)
        )
        raise TemplateMismatch(
            f"{kind} template needs the {want.m} constraints {listed}; got {cs.m} "
            f"with equalities {list(cs.eq_idx)}"
        )
    for i, (got, expected) in enumerate(zip(cs.g, want.g)):
        if got != expected:
            raise TemplateMismatch(f"constraint {i} is not {expected!r}")
    return b_mat


Rows = tuple[tuple[Polynomial, ...], ...]


def lambdas(rows: Rows, F: tuple[Polynomial, ...]) -> tuple[Polynomial, ...]:
    """The multiplier expressions L(x) (F, 0, .., 0), one per row of L."""
    return tuple(dot(row, F, F[0].n) for row in rows)


def catalog_lme(kind: str, cs: ConstraintSystem) -> Rows:
    """The m rows of the catalog L matrix when cs is template(kind, n, B)."""
    if kind == SOC_QUADRIC:
        raise UnknownKind("soc_quadric has no L matrix; its multipliers come from soc_lme")
    b_mat = _match(kind, cs)
    n, m = cs.n, cs.m
    # the shared pieces, each built once and only for a kind that reads it:
    # the zero tail, the variables x and the unit rows e_i (the constants
    # float(j == i))
    zero, one = Polynomial.zero(n), Polynomial.constant(n, 1.0)
    tail = (zero,) * m
    x = [] if kind == ORTHANT else [Polynomial.variable(n, j) for j in range(n)]
    e = [] if kind in (BALL, RING) else [
        tuple(one if j == i else zero for j in range(n)) for i in range(n)
    ]

    if kind == ORTHANT:
        return tuple(e_i + tail for e_i in e)

    if kind == BALL:
        return (tuple(xj.scale(-0.5) for xj in x) + (one,),)

    if kind == RING:
        s = Polynomial.quadratic(n, quad=np.eye(n))
        two_minus = Polynomial.constant(n, 2.0) - s
        one_minus = one - s
        row1 = tuple((two_minus * xj).scale(0.5) for xj in x) + (s - 1.0, s)
        row2 = tuple((one_minus * xj).scale(0.25) for xj in x) + (
            s.scale(0.5),
            (s + 1.0).scale(0.5),
        )
        return (row1, row2)

    if kind == QUADRIC_LINEAR:
        bx = [Polynomial.quadratic(n, lin=row) for row in b_mat]
        row0 = tuple(xj.scale(0.5) for xj in x) + (Polynomial.constant(n, -1.0),)
        row0 += (Polynomial.constant(n, -0.5),) * n
        own = [
            tuple(u - b * xj for u, xj in zip(e_i, x)) + (b.scale(2.0),) + (b,) * n
            for e_i, b in zip(e, bx)
        ]
        return (row0, own[0]) + tuple(
            tuple(a + b for a, b in zip(own[i], own[0])) for i in range(1, n)
        )

    # ORTHANT_PRODUCT: the closed-form carrier, not a left inverse (see the
    # module docstring)
    eighth = [xj.scale(0.125) for xj in x]
    return (tuple(xj.scale(-0.125) for xj in x) + tail,) + tuple(
        tuple(u - v for u, v in zip(e_i, eighth)) + tail for e_i in e
    )


def soc_lme(F: tuple[Polynomial, ...], cs: ConstraintSystem) -> LmeSet:
    """Rational multipliers for the quadric + second-order-cone pattern.

    The cone is one nappe, x_n >= |x_bar|, so x_n >= 0 is the third
    constraint.  On the set x != 0, hence x_n > 0: the denominator q = 2 x_n
    is positive and the multiplier of x_n >= 0 is the zero polynomial.  Every
    multiplier is a numerator over q, so lambda_0 = x.F / 2 is (x.F / 2) q.
    """
    n = cs.n
    b_mat = _match(SOC_QUADRIC, cs)
    x_n = Polynomial.variable(n, n - 1)
    x_dot_f = dot((Polynomial.variable(n, j) for j in range(n)), F, n)
    q = x_n.scale(2.0)
    p1 = F[n - 1] - x_dot_f * Polynomial.quadratic(n, lin=b_mat[n - 1])
    return LmeSet((x_dot_f.scale(0.5) * q, p1, Polynomial.zero(n)), q)


def verify_lme(rows: Rows, cs: ConstraintSystem) -> bool:
    """Symbolically check L(x) G(x) = I_m coefficient by coefficient, up to
    VERIFY_TOL."""
    n, m = cs.n, cs.m
    if len(rows) != m or any(len(row) != n + m for row in rows):
        return False
    grads = [g.gradient() for g in cs.g]
    for i, row in enumerate(rows):
        for k in range(m):
            # column k of G: grad g_k, then g_k in row n + k
            acc = dot((*row[:n], row[n + k]), (*grads[k], cs.g[k]), n)
            target = acc - (1.0 if i == k else 0.0)
            if np.abs(target.coefs).max(initial=0.0) > VERIFY_TOL:
                return False
    return True


# -- problem files ----------------------------------------------------------


def _json_list(value, where: str, length: int, what: str) -> list:
    """value when it is a list of `length` entries; `what` names them."""
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {value!r}")
    if len(value) != length:
        raise ValueError(f"{where} must have {what}, got {len(value)}")
    return value


def lme_from_spec(data: dict, F: tuple[Polynomial, ...], cs: ConstraintSystem) -> LmeSet:
    """The multipliers of a problem-file `lme` object: {kind}, a catalog
    geometry that cs must match, or {L}, a matrix that must pass verify_lme.
    Only the soc_quadric kind gives the multipliers a denominator.

    Other keys, a kind that is not one of KINDS, a list of another length or
    a bad term raise a ValueError that names its place, such as
    `L[0][1], term 0`.
    """
    n, m = cs.n, cs.m
    if set(data) not in _LME_FORMS:
        raise ValueError(f"keys must be {{kind}} or {{L}}, got {sorted(data)}")
    if "kind" in data:
        kind = data["kind"]
        if not isinstance(kind, str):
            raise ValueError(f"kind must be a string, got {kind!r}")
        if kind == SOC_QUADRIC:
            return soc_lme(F, cs)
        rewrite = "orthant_product" if kind == ORTHANT_PRODUCT else None
        return LmeSet(lambdas(catalog_lme(kind, cs), F), None, rewrite)
    rows = []
    for i, row in enumerate(_json_list(data["L"], "L", m, f"m={m} rows")):
        cells = _json_list(row, f"L[{i}]", n + m, f"n+m={n + m} cells")
        rows.append(
            tuple(Polynomial.from_json(n, c, f"L[{i}][{j}]") for j, c in enumerate(cells))
        )
    if not verify_lme(rows, cs):
        raise TemplateMismatch("supplied L matrix is not an exact left inverse")
    return LmeSet(lambdas(rows, F))


# -- KKT variety assembly ------------------------------------------------------


def build_kkt_sets(
    F: tuple[Polynomial, ...],
    cs: ConstraintSystem,
    lam: LmeSet,
) -> KktSystem:
    """Assemble E and I: stationarity, complementarity, and sign conditions.

    The denominator is cleared: stationarity row t is
    denom F_t - sum_i lambdas[i] d_t g_i over the i with d_t g_i != 0, and
    F_t - ... when denom is None.  Complementarity and the sign conditions
    use the numerators (the denominator is positive on the feasible set by
    the template's contract).  A stationarity row whose largest coefficient
    is at most CANCEL_TOL times the largest coefficient of denom F_t and of
    the terms subtracted from it is rounding noise and counts as zero.  Zero
    polynomials are dropped once, at the end.
    """
    n, m = cs.n, cs.m
    if len(F) != n or len(lam.lambdas) != m:
        raise ValueError("arity mismatch between F, constraints and multipliers")

    if lam.rewrite == "orthant_product":
        lam_eq = lam.lambdas[cs.eq_idx[0]]
        stationarity = [
            lam_eq * (Polynomial.constant(n, 2.0) - Polynomial.variable(n, t)) for t in range(n)
        ]
    else:
        grads = [g.gradient() for g in cs.g]
        stationarity = []
        for t in range(n):
            row = F[t] if lam.denom is None else lam.denom * F[t]
            scale = np.abs(row.coefs).max(initial=0.0)
            for i in range(m):
                if not grads[i][t].is_zero:
                    term = lam.lambdas[i] * grads[i][t]
                    scale = max(scale, np.abs(term.coefs).max(initial=0.0))
                    row = row - term
            # a row that cancels exactly in exact arithmetic leaves rounding
            # noise, which equilibration would scale up into a spurious row
            if np.abs(row.coefs).max(initial=0.0) <= CANCEL_TOL * scale:
                row = Polynomial.zero(n)
            stationarity.append(row)

    equations = (
        *stationarity,
        *(lam.lambdas[i] * cs.g[i] for i in cs.ineq_idx),
        *(cs.g[i] for i in cs.eq_idx),
    )
    inequalities = (*(lam.lambdas[i] for i in cs.ineq_idx), *(cs.g[i] for i in cs.ineq_idx))
    return KktSystem(*(tuple(p for p in ps if not p.is_zero) for ps in (equations, inequalities)))
