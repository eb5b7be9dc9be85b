"""Sparse bivariate polynomials over GF(p) and the grid machinery built on them.

The three nontrivial operations:

* `top_coefficient_interpolation` evaluates the weighted grid sum that
  recovers the coefficient of x^(|A|-1) y^(|B|-1) from values on A x B,
  valid whenever deg f <= |A| + |B| - 2.  `difference_product` is the one
  place its grid weight prod_{u != t} (t - u) is computed, here and in `certify`.
* `vanishing_profile` lists the grid points where a polynomial does NOT
  vanish (the interesting points for a cover argument).
* `min_degree_feasibility` asks, by linear algebra, whether any polynomial
  of total degree <= D can vanish on a grid except at one prescribed point.
  Grids of shape |X| x |Y| admit such a polynomial exactly when
  D >= |X| + |Y| - 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .field import FieldElement, PrimeField


class BivariatePolynomial:
    """Polynomial in x, y over GF(p), stored as {(i, j): nonzero coeff}."""

    __slots__ = ("field", "terms")

    def __init__(self, field: PrimeField, terms=None):
        p = field.p
        clean: dict[tuple[int, int], int] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for (i, j), coeff in items:
                c = int(coeff) % p
                if i < 0 or j < 0:
                    raise ValueError("exponents must be nonnegative")
                if c:
                    key = (int(i), int(j))
                    c = (clean.get(key, 0) + c) % p
                    if c:
                        clean[key] = c
                    else:
                        clean.pop(key, None)
        self.field = field
        self.terms = clean

    @classmethod
    def zero(cls, field: PrimeField) -> "BivariatePolynomial":
        return cls(field)

    @classmethod
    def constant(cls, field: PrimeField, c) -> "BivariatePolynomial":
        return cls(field, {(0, 0): int(field.element(c))})

    @classmethod
    def linear(cls, field: PrimeField, alpha, beta, gamma) -> "BivariatePolynomial":
        """alpha*x + beta*y + gamma; (alpha, beta) != (0, 0)."""
        a, b, g = (int(field.element(v)) for v in (alpha, beta, gamma))
        if a == 0 and b == 0:
            raise ValueError("a linear form needs a nonzero x or y coefficient")
        return cls(field, {(1, 0): a, (0, 1): b, (0, 0): g})

    def degree(self) -> int:
        """Total degree; -1 stands in for the zero polynomial."""
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def coefficient(self, i: int, j: int) -> FieldElement:
        return FieldElement(self.terms.get((i, j), 0), self.field)

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, t, s) -> FieldElement:
        p = self.field.p
        tv = int(self.field.element(t))
        sv = int(self.field.element(s))
        # one power table per variable: no exponent exceeds the total degree
        t_pow, s_pow = [1], [1]
        for _ in range(self.degree()):
            t_pow.append(t_pow[-1] * tv % p)
            s_pow.append(s_pow[-1] * sv % p)
        total = sum(c * t_pow[i] % p * s_pow[j] for (i, j), c in self.terms.items())
        return FieldElement(total % p, self.field)

    def add(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        self._check_field(other)
        return BivariatePolynomial(self.field, [*self.terms.items(), *other.terms.items()])

    def multiply(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        self._check_field(other)
        if self.is_zero() or other.is_zero():
            return BivariatePolynomial.zero(self.field)
        p = self.field.p
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                v = (out.get(key, 0) + c1 * c2) % p
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return BivariatePolynomial(self.field, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BivariatePolynomial)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field.p, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (i, j), c in sorted(self.terms.items()):
            mono = "".join(
                [f"x^{i}" if i > 1 else "x" if i == 1 else "",
                 f"y^{j}" if j > 1 else "y" if j == 1 else ""]
            )
            bits.append(f"{c}{mono}" if mono else f"{c}")
        return " + ".join(bits)

    def to_triples(self) -> list[list[int]]:
        """[[i, j, coeff], ...] sorted by exponent pair; CLI/JSON format."""
        return [[i, j, c] for (i, j), c in sorted(self.terms.items())]

    @classmethod
    def from_triples(cls, field: PrimeField, triples) -> "BivariatePolynomial":
        """Parse the `to_triples` form: a list of [i, j, coeff] integer
        triples (JSON integers, not floats or booleans), one per monomial."""
        if not isinstance(triples, list) or not all(
            isinstance(t, list)
            and len(t) == 3
            and all(isinstance(v, int) and not isinstance(v, bool) for v in t)
            for t in triples
        ):
            raise ValueError("polynomial must be a list of [i, j, coeff] integer triples")
        terms = {}
        for i, j, c in triples:
            if (i, j) in terms:
                raise ValueError(f"polynomial repeats the monomial [{i}, {j}]")
            terms[i, j] = c
        return cls(field, terms)

    def _check_field(self, other: "BivariatePolynomial") -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")


def line_product(field: PrimeField, lines: Iterable) -> BivariatePolynomial:
    """Product of the linear forms alpha*x + beta*y + gamma.

    The empty product is the constant 1; the degree of the result equals the
    number of lines.
    """
    out = BivariatePolynomial.constant(field, 1)
    for alpha, beta, gamma in lines:
        out = out.multiply(BivariatePolynomial.linear(field, alpha, beta, gamma))
    return out


def _point_values(field: PrimeField, points) -> list[int]:
    values = [int(field.element(x)) for x in points]
    if len(set(values)) != len(values):
        raise ValueError("grid factors must consist of distinct elements")
    if not values:
        raise ValueError("grid factors must be nonempty")
    return values


def difference_product(t: int, values: Iterable[int], p: int) -> int:
    """prod_{u in values, u != t} (t - u) mod p, reduced factor by factor."""
    prod = 1
    for u in values:
        if u != t:
            prod = prod * (t - u) % p
    return prod


def top_coefficient_interpolation(
    f: BivariatePolynomial, A, B
) -> FieldElement:
    """Weighted grid sum equal to the coefficient of x^(|A|-1) y^(|B|-1).

    Computes sum over (t, s) in A x B of
        f(t, s) / (prod_{u in A, u != t} (t - u) * prod_{v in B, v != s} (s - v)),
    which recovers the coefficient exactly when deg f <= |A| + |B| - 2.
    The difference products are tabulated once per row/column, so the double
    sum costs O(|A| |B|) evaluations after O((|A| + |B|)^2) setup.
    """
    field = f.field
    p = field.p
    avals = _point_values(field, A)
    bvals = _point_values(field, B)
    if f.degree() > len(avals) + len(bvals) - 2:
        raise ValueError(
            f"degree {f.degree()} exceeds |A|+|B|-2 = {len(avals) + len(bvals) - 2}"
        )
    wa = [pow(difference_product(t, avals, p), -1, p) for t in avals]
    wb = [pow(difference_product(s, bvals, p), -1, p) for s in bvals]
    total = 0
    for t, inv_t in zip(avals, wa):
        row = 0
        for s, inv_s in zip(bvals, wb):
            row += int(f.evaluate(t, s)) * inv_s
        total = (total + row % p * inv_t) % p
    return FieldElement(total, field)


def interpolation_term(
    f: BivariatePolynomial, A, B, t, s
) -> FieldElement:
    """The single (t, s) summand of the grid sum above."""
    field = f.field
    p = field.p
    avals = _point_values(field, A)
    bvals = _point_values(field, B)
    tv = int(field.element(t))
    sv = int(field.element(s))
    if tv not in avals or sv not in bvals:
        raise ValueError("term point must lie on the grid")
    denom = difference_product(tv, avals, p) * difference_product(sv, bvals, p)
    return FieldElement(int(f.evaluate(tv, sv)) * pow(denom, -1, p) % p, field)


def vanishing_profile(f: BivariatePolynomial, X, Y) -> list[tuple[FieldElement, FieldElement]]:
    """Grid points of X x Y where f does NOT vanish, in lexicographic order."""
    field = f.field
    xvals = sorted(_point_values(field, X))
    yvals = sorted(_point_values(field, Y))
    out = []
    for t in xvals:
        for s in yvals:
            if int(f.evaluate(t, s)) != 0:
                out.append((FieldElement(t, field), FieldElement(s, field)))
    return out


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p) and its pivot columns.

    The pivot of each column is the first remaining row holding a nonzero
    entry there; the deterministic rule keeps results reproducible.
    """
    m = [[v % p for v in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        row_r = m[r]
        for i in range(n_rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [(vi - factor * vr) % p for vi, vr in zip(m[i], row_r)]
        pivot_cols.append(c)
        r += 1
    return m, pivot_cols


def solve_linear_system(
    rows: list[list[int]], rhs: list[int], p: int
) -> list[int] | None:
    """Particular solution of M x = rhs over GF(p), or None if inconsistent.

    Reduces the augmented matrix; a pivot in the right-hand column means an
    equation 0 = nonzero.  Free variables are set to 0.
    """
    n_cols = len(rows[0]) if rows else 0
    reduced, pivot_cols = _rref([list(row) + [r] for row, r in zip(rows, rhs)], p)
    if pivot_cols and pivot_cols[-1] == n_cols:
        return None
    x = [0] * n_cols
    for row, c in zip(reduced, pivot_cols):
        x[c] = row[n_cols]
    return x


def nullspace_basis(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {x : M x = 0} over GF(p), one vector per free column."""
    n_cols = len(rows[0]) if rows else 0
    reduced, pivot_cols = _rref(rows, p)
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [0] * n_cols
        vec[free] = 1
        for row, c in zip(reduced, pivot_cols):
            vec[c] = (-row[free]) % p
        basis.append(vec)
    return basis


def monomials_up_to(degree_bound: int) -> list[tuple[int, int]]:
    """Exponent pairs with i + j <= D, graded order: by total degree, then i."""
    return [
        (i, t - i) for t in range(degree_bound + 1) for i in range(t + 1)
    ]


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: BivariatePolynomial | None


def _grid_system(X, Y, degree_bound: int, field: PrimeField) -> tuple:
    """(sorted X values, sorted Y values, monomials, rows): the linear system
    of the grid checks, one evaluation row over the monomials of total
    degree <= D per grid point, in lexicographic point order."""
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    p = field.p
    xvals = sorted(_point_values(field, X))
    yvals = sorted(_point_values(field, Y))
    monos = monomials_up_to(degree_bound)
    rows = [[pow(t, i, p) * pow(s, j, p) % p for i, j in monos] for t in xvals for s in yvals]
    return xvals, yvals, monos, rows


def min_degree_feasibility(
    X, Y, exceptional, degree_bound: int, field: PrimeField
) -> FeasibilityResult:
    """Can a polynomial of total degree <= D vanish on X x Y except one point?

    Solves, over the monomial basis {x^i y^j : i + j <= D}, the linear system
    requiring f = 0 on every grid point but `exceptional`, where f must take
    the value 1.  Returns the verdict plus a witness polynomial when feasible.
    Infeasible for every D < |X| + |Y| - 2 and feasible from
    D = (|X| - 1) + (|Y| - 1) on.
    """
    xvals, yvals, monos, rows = _grid_system(X, Y, degree_bound, field)
    et = int(field.element(exceptional[0]))
    es = int(field.element(exceptional[1]))
    if et not in xvals or es not in yvals:
        raise ValueError(f"exceptional point ({et}, {es}) is outside the grid")
    rhs = [1 if (t, s) == (et, es) else 0 for t in xvals for s in yvals]
    solution = solve_linear_system(rows, rhs, field.p)
    if solution is None:
        return FeasibilityResult(False, None)
    return FeasibilityResult(True, BivariatePolynomial(field, zip(monos, solution)))


def feasible_exceptional_points(
    X, Y, degree_bound: int, field: PrimeField
) -> set[tuple[int, int]]:
    """All grid points usable as the single non-vanishing point at degree <= D.

    Batch companion to `min_degree_feasibility`: a point e works exactly when
    its evaluation row is independent of the other rows, i.e. when no left
    null vector of the grid evaluation matrix touches e.  One elimination
    answers the question for every grid point at once.
    """
    xvals, yvals, _, rows = _grid_system(X, Y, degree_bound, field)
    transpose = [list(column) for column in zip(*rows)]
    dependent = {idx for vec in nullspace_basis(transpose, field.p) for idx, v in enumerate(vec) if v}
    points = [(t, s) for t in xvals for s in yvals]
    return {pt for idx, pt in enumerate(points) if idx not in dependent}
