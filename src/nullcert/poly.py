"""Sparse bivariate polynomials over GF(p) and the grid machinery built on them.

The three nontrivial operations:

* `top_coefficient_interpolation` evaluates the weighted grid sum that
  recovers the coefficient of x^(|A|-1) y^(|B|-1) from values on A x B,
  valid whenever deg f <= |A| + |B| - 2.  By linearity the sum is regrouped
  into weighted power sums of A and B, one per exponent, so no grid point is
  evaluated.  `difference_product` is the one place its grid weight
  prod_{u != t} (t - u) is computed, here and in `certify`.
* `vanishing_profile` lists the grid points where a polynomial does NOT
  vanish (the interesting points for a cover argument).
* `min_degree_feasibility` asks, by linear algebra, whether any polynomial
  of total degree <= D can vanish on a grid except at one prescribed point.
  Grids of shape |X| x |Y| admit such a polynomial exactly when
  D >= |X| + |Y| - 2.  Its rows are one outer product of the X and Y power
  tables, gathered on the monomials' exponents.  `_echelon` is the one
  elimination: forward only, in place, pivots in the evaluation columns,
  with the right-hand side or an identity block riding along so that both
  grid checks read their answer from the rows past the rank.

The grid kernels here and `certify`'s cover check run as whole-block numpy
operations on reduced residues.  Each dense matrix here (the line product's
coefficients, the grid rows, the system `_echelon` eliminates) stays one
`_array` until its answer is read back in Python ints.  `_array`, from
`field`, holds the package's one dtype rule: int64 when p < 2**31, an
object array of Python ints otherwise; both dtypes run the same statements,
and both are exact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .field import FieldElement, PrimeField, _array


def _linear_form(field: PrimeField, alpha, beta, gamma) -> tuple[int, int, int]:
    """The coefficients of alpha*x + beta*y + gamma reduced as the
    `BivariatePolynomial` constructor reduces them (a foreign element raises
    ValueError); (alpha, beta) must not both reduce to 0."""
    p = field.p
    a, b, g = (c % p if type(c) is int else field.element(c).value for c in (alpha, beta, gamma))
    if not (a or b):
        raise ValueError("a linear form needs a nonzero x or y coefficient")
    return a, b, g


def _powers(v: int, degree: int, p: int) -> list[int]:
    """[v^0, v^1, ..., v^degree] mod p; just [1] when degree < 1."""
    table = [1]
    for _ in range(degree):
        table.append(table[-1] * v % p)
    return table


class BivariatePolynomial:
    """Polynomial in x, y over GF(p), stored as {(i, j): nonzero coeff}."""

    __slots__ = ("field", "terms")

    def __init__(self, field: PrimeField, terms=None):
        p = field.p
        clean: dict[tuple[int, int], int] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for (i, j), coeff in items:
                try:
                    key = (operator.index(i), operator.index(j))
                except TypeError:
                    raise ValueError(f"exponents must be integers, got ({i!r}, {j!r})") from None
                if key[0] < 0 or key[1] < 0:
                    raise ValueError("exponents must be nonnegative")
                c = coeff % p if type(coeff) is int else field.element(coeff).value
                if c:
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
        return cls(field, {(0, 0): c})

    @classmethod
    def linear(cls, field: PrimeField, alpha, beta, gamma) -> "BivariatePolynomial":
        """alpha*x + beta*y + gamma; (alpha, beta) != (0, 0)."""
        a, b, g = _linear_form(field, alpha, beta, gamma)
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
        t_pow, s_pow = _powers(tv, self.degree(), p), _powers(sv, self.degree(), p)
        total = sum(c * t_pow[i] % p * s_pow[j] for (i, j), c in self.terms.items())
        return FieldElement(total % p, self.field)

    def add(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        self._check_field(other)
        return BivariatePolynomial(self.field, [*self.terms.items(), *other.terms.items()])

    def multiply(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        self._check_field(other)
        # the constructor sums the products that land on one monomial
        return BivariatePolynomial(self.field, [
            ((i1 + i2, j1 + j2), c1 * c2)
            for (i1, j1), c1 in self.terms.items() for (i2, j2), c2 in other.terms.items()
        ])

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
    number of lines.  The product of k lines is one (k+1) x (k+1) `_array`,
    coeffs[i, j] the coefficient of x^i y^j, and each line is three reduced
    slice updates: g*C plus b*C shifted along j plus a*C shifted along i.
    """
    p = field.p
    forms = [_linear_form(field, *line) for line in lines]
    size = len(forms) + 1
    coeffs = _array([[0] * size] * size, p)
    coeffs[0, 0] = 1
    for a, b, g in forms:
        grown = g * coeffs % p
        grown[1:] += a * coeffs[:-1] % p
        grown[:, 1:] += b * coeffs[:, :-1] % p
        coeffs = grown % p
    i, j = np.nonzero(coeffs)
    return BivariatePolynomial(field, zip(zip(i.tolist(), j.tolist()), coeffs[i, j].tolist()))


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
    With w_t, w_s the two weights, the sum equals sum over the terms c x^i y^j
    of c * L_i * M_j, where L_i = sum_t w_t t^i and M_j = sum_s w_s s^j, so it
    costs O(terms + (|A| + |B|) deg f) after O(|A|^2 + |B|^2) for the weights.
    """
    field = f.field
    p = field.p
    avals = _point_values(field, A)
    bvals = _point_values(field, B)
    if f.degree() > len(avals) + len(bvals) - 2:
        raise ValueError(
            f"degree {f.degree()} exceeds |A|+|B|-2 = {len(avals) + len(bvals) - 2}"
        )
    moments_a = _weighted_power_sums(avals, f.degree(), p)
    moments_b = _weighted_power_sums(bvals, f.degree(), p)
    total = sum(c * moments_a[i] % p * moments_b[j] for (i, j), c in f.terms.items())
    return FieldElement(total % p, field)


def _weighted_power_sums(values: list[int], degree: int, p: int) -> list[int]:
    """[sum_t w_t t^i mod p for i in 0..degree], w_t = 1 / prod_{u != t} (t - u)."""
    sums = [0] * (degree + 1)
    for t in values:
        w = pow(difference_product(t, values, p), -1, p)
        sums = [total + w * power for total, power in zip(sums, _powers(t, degree, p))]
    return [total % p for total in sums]


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
    return [(FieldElement(t, field), FieldElement(s, field))
            for t in xvals for s in yvals if int(f.evaluate(t, s))]


def _echelon(m: np.ndarray, n_cols: int, p: int) -> list[int]:
    """Row echelon form over GF(p) of the `_array` `m`, in place, pivots only
    in its first `n_cols` columns; returns the pivot columns.

    Forward elimination only: each pivot, the first remaining row holding a
    nonzero entry in its column, is scaled to 1 and clears the rows below it
    in one block update, (below - outer(factors, pivot row)) mod p, exact in
    either dtype on reduced entries.  Later columns ride along, so the rows
    past the rank (the number of pivot columns) are zero in the first
    `n_cols` columns and keep, in the later ones, what the same combination
    of input rows makes of them.
    """
    pivot_cols: list[int] = []
    for c in range(n_cols):
        r = len(pivot_cols)
        nonzero = np.flatnonzero(m[r:, c])
        if not nonzero.size:
            continue
        pivot = r + int(nonzero[0])
        m[[r, pivot]] = m[[pivot, r]]
        m[r, c:] = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        below = m[r + 1:, c:]
        below[...] = (below - np.outer(below[:, 0], m[r, c:])) % p
        pivot_cols.append(c)
    return pivot_cols


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
    """(points, monomials, rows): the linear system of the grid checks, one
    evaluation row over the monomials of total degree <= D per grid point,
    with the points (t, s) in lexicographic order, the order of the rows;
    the rows are one `_array`."""
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    p = field.p
    xvals = sorted(_point_values(field, X))
    yvals = sorted(_point_values(field, Y))
    monos = monomials_up_to(degree_bound)
    i, j = np.array(monos).T
    x_powers, y_powers = (_array([_powers(v, degree_bound, p) for v in values], p)
                          for values in (xvals, yvals))
    rows = x_powers[:, None, i] * y_powers[None, :, j] % p
    return [(t, s) for t in xvals for s in yvals], monos, rows.reshape(-1, len(monos))


def min_degree_feasibility(
    X, Y, exceptional, degree_bound: int, field: PrimeField
) -> FeasibilityResult:
    """Can a polynomial of total degree <= D vanish on X x Y except one point?

    Solves, over the monomial basis {x^i y^j : i + j <= D}, the linear system
    requiring f = 0 on every grid point but `exceptional`, where f must take
    the value 1.  One forward elimination of [M | e] decides it: the system
    is inconsistent exactly when a row past the rank ends in a nonzero entry.
    Otherwise the witness sets every free coefficient to 0 and back-solves
    the pivot coefficients on the last column, last pivot first; with the
    free ones fixed, that solution is unique.  Infeasible for every
    D < |X| + |Y| - 2 and feasible from D = (|X| - 1) + (|Y| - 1) on.
    """
    try:
        et, es = exceptional
    except (TypeError, ValueError):
        raise ValueError(f"exceptional point must be a pair (t, s), got {exceptional!r}") from None
    points, monos, rows = _grid_system(X, Y, degree_bound, field)
    p = field.p
    point = int(field.element(et)), int(field.element(es))
    if point not in points:
        raise ValueError(f"exceptional point {point} is outside the grid")
    n = len(monos)
    m = np.hstack([rows, _array([[int(pt == point)] for pt in points], p)])
    pivot_cols = _echelon(m, n, p)
    if m[len(pivot_cols):, n].any():
        return FeasibilityResult(False, None)
    coeffs = _array([0] * n, p)
    for r, c in reversed(list(enumerate(pivot_cols))):
        coeffs[c] = (m[r, n] - (m[r, c + 1:n] * coeffs[c + 1:] % p).sum()) % p
    return FeasibilityResult(True, BivariatePolynomial(field, zip(monos, coeffs.tolist())))


def feasible_exceptional_points(
    X, Y, degree_bound: int, field: PrimeField
) -> set[tuple[int, int]]:
    """All grid points usable as the single non-vanishing point at degree <= D.

    Batch companion to `min_degree_feasibility`: a point e works exactly when
    its evaluation row is independent of the other rows, i.e. when no left
    null vector of the grid evaluation matrix M touches e.  One forward
    elimination of [M | I] answers it for every point at once: the identity
    block of the rows past the rank is a basis of that null space, and a
    space's support is the union of the supports of any of its bases.
    """
    points, monos, rows = _grid_system(X, Y, degree_bound, field)
    m = np.hstack([rows, np.eye(len(points), dtype=rows.dtype)])
    rank = len(_echelon(m, len(monos), field.p))
    dependent = m[rank:, len(monos):].any(axis=0)
    return {pt for pt, dep in zip(points, dependent.tolist()) if not dep}
