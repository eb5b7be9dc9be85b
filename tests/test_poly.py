import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nullcert import field as field_module, poly
from nullcert.field import FieldElement, PrimeField
from nullcert.poly import (
    BivariatePolynomial,
    difference_product,
    feasible_exceptional_points,
    interpolation_term,
    line_product,
    min_degree_feasibility,
    monomials_up_to,
    top_coefficient_interpolation,
    vanishing_profile,
)


def P(p, terms):
    return BivariatePolynomial(PrimeField(p), terms)


def test_construction_normalizes():
    f = P(5, {(1, 1): 6, (0, 0): 0, (2, 0): 5})
    assert f.terms == {(1, 1): 1}
    assert f.degree() == 2
    assert P(5, {}).degree() == -1
    assert P(5, {}).is_zero()
    with pytest.raises(ValueError):
        P(5, {(-1, 0): 1})


def test_construction_refuses_what_it_would_coerce():
    # a field mismatch is an error, never a coercion: no reduction of a
    # foreign element, a string or a float, and no truncated exponent
    f7 = PrimeField(7)
    for coeff in (PrimeField(5).element(3), "3", 2.7, None):
        with pytest.raises(ValueError, match="is not"):
            BivariatePolynomial(f7, {(0, 0): coeff})
    for key in ((1.5, 0), (0.5, 0), (-0.5, 0), (0, "1")):
        with pytest.raises(ValueError, match="^exponents must be integers, got "):
            BivariatePolynomial(f7, {key: 1})
    f = BivariatePolynomial(f7, {(1, 0): f7.element(3), (0, 0): -1})
    assert f.terms == {(1, 0): 3, (0, 0): 6}


def test_evaluate_examples():
    xy_minus_1 = P(7, {(1, 1): 1, (0, 0): -1})
    assert xy_minus_1.evaluate(2, 4).value == 0
    line = P(7, {(1, 0): 1, (0, 1): -3})
    assert line.evaluate(6, 2).value == 0
    f = P(5, {(2, 1): 1, (0, 0): 1})
    assert f.evaluate(2, 3).value == 3


_EVAL_PRIMES = (2, 3, 257, (1 << 61) - 1)


@st.composite
def _terms_and_point(draw):
    p = draw(st.sampled_from(_EVAL_PRIMES))
    coeff, exponent = st.integers(-2 * p, 2 * p), st.integers(0, 64)
    terms = draw(st.one_of(
        st.just({}),  # the zero polynomial
        st.builds(lambda c: {(0, 0): c}, coeff),
        st.builds(lambda i, c: {(i, 0): c}, exponent, coeff),
        st.builds(lambda j, c: {(0, j): c}, exponent, coeff),
        st.dictionaries(st.tuples(exponent, exponent), coeff, max_size=6),
    ))
    point = st.integers(-3 * p, 3 * p)  # negative, in [0, p) and past p
    return p, terms, draw(point), draw(point), draw(st.booleans())


def _field(p, primes):
    # the field's trial-division primality test stops at 2**20; the larger
    # moduli are Mersenne primes, so their check is stood in for here
    with mock.patch.object(field_module, "is_prime", lambda n: n in primes):
        return PrimeField(p)


@given(_terms_and_point())
def test_evaluate_is_the_plain_formula(case):
    p, terms, t, s, as_elements = case
    field = _field(p, _EVAL_PRIMES)
    f = BivariatePolynomial(field, terms)
    point = (field.element(t), field.element(s)) if as_elements else (t, s)
    expected = sum(c * t**i * s**j for (i, j), c in terms.items()) % p
    assert f.evaluate(*point) == FieldElement(expected, field)


def test_multiply_examples():
    f5 = PrimeField(5)
    x_minus_y = P(5, {(1, 0): 1, (0, 1): -1})
    x_plus_y = P(5, {(1, 0): 1, (0, 1): 1})
    assert x_minus_y.multiply(x_plus_y).terms == {(2, 0): 1, (0, 2): 4}
    one = BivariatePolynomial.constant(f5, 1)
    f = P(5, {(3, 2): 2, (1, 0): 3})
    assert f.multiply(one) == f
    # (xy - 1)(x - 2y) = x^2 y - 2 x y^2 - x + 2y
    g = P(5, {(1, 1): 1, (0, 0): -1}).multiply(P(5, {(1, 0): 1, (0, 1): -2}))
    assert g.terms == {(2, 1): 1, (1, 2): 3, (1, 0): 4, (0, 1): 2}


def test_multiply_degree_cap():
    # there is no degree cap: long line products stay exact
    f = P(5, {(30, 30): 1})
    assert f.multiply(f).terms == {(60, 60): 1}
    assert f.multiply(f).degree() == 120


def test_arithmetic_across_fields_is_rejected():
    with pytest.raises(ValueError, match="field mismatch"):
        P(5, {(1, 0): 1}).add(P(7, {(1, 0): 1}))
    with pytest.raises(ValueError, match="field mismatch"):
        P(5, {(1, 0): 1}).multiply(P(7, {(1, 0): 1}))


def test_repr_lists_terms_in_exponent_order():
    f = P(5, {(2, 1): 4, (0, 0): 3, (1, 3): 6, (0, 1): 2, (1, 0): 1, (0, 2): 5})
    assert repr(f) == "3 + 2y + 1x + 1xy^3 + 4x^2y"
    assert repr(P(5, {})) == "0"


def test_line_product_examples():
    f5 = PrimeField(5)
    assert line_product(f5, [(1, -1, 0)]).terms == {(1, 0): 1, (0, 1): 4}
    # (x + y - 3)(x - y) = x^2 - y^2 - 3x + 3y
    f = line_product(f5, [(1, 1, -3), (1, -1, 0)])
    assert f.terms == {(2, 0): 1, (0, 2): 4, (1, 0): 2, (0, 1): 3}
    assert line_product(f5, []).terms == {(0, 0): 1}
    with pytest.raises(ValueError):
        line_product(f5, [(0, 0, 3)])
    with pytest.raises(ValueError, match="nonzero x or y coefficient"):
        line_product(f5, [(1, 1, 1), (5, -5, 2)])


def test_triples_round_trip():
    f = P(7, {(2, 1): 3, (0, 0): 6, (1, 5): 2})
    assert BivariatePolynomial.from_triples(PrimeField(7), f.to_triples()) == f
    assert f.to_triples() == [[0, 0, 6], [1, 5, 2], [2, 1, 3]]


def test_from_triples_refuses_a_repeated_monomial():
    # the constructor sums repeated terms; the triples form lists each once
    assert P(7, [((1, 1), 2), ((1, 1), 3)]).terms == {(1, 1): 5}
    with pytest.raises(ValueError, match=r"^polynomial repeats the monomial \[1, 1\]$"):
        BivariatePolynomial.from_triples(PrimeField(7), [[1, 1, 2], [0, 0, 1], [1, 1, 3]])


def test_top_coefficient_hand_example():
    # f = xy on {1,2} x {3,4} mod 7: row weights 1/(1-2), 1/(2-1); column
    # weights 1/(3-4), 1/(4-3); terms 3, -4, -6, 8 sum to 1.
    f7 = PrimeField(7)
    f = P(7, {(1, 1): 1})
    A = [f7.element(1), f7.element(2)]
    B = [f7.element(3), f7.element(4)]
    assert top_coefficient_interpolation(f, A, B).value == 1
    terms = [int(interpolation_term(f, A, B, t, s)) for t in (1, 2) for s in (3, 4)]
    assert terms == [3 % 7, -4 % 7, -6 % 7, 8 % 7]
    assert sum(terms) % 7 == 1


def test_top_coefficient_constant_is_zero():
    f7 = PrimeField(7)
    f = BivariatePolynomial.constant(f7, 5)
    A = [f7.element(1), f7.element(2)]
    B = [f7.element(3), f7.element(4)]
    assert top_coefficient_interpolation(f, A, B).value == 0


def test_top_coefficient_preconditions():
    f7 = PrimeField(7)
    f = P(7, {(2, 2): 1})
    pts = [f7.element(1), f7.element(2)]
    with pytest.raises(ValueError):
        top_coefficient_interpolation(f, pts, pts)  # degree 4 > 2
    with pytest.raises(ValueError):
        top_coefficient_interpolation(P(7, {(0, 0): 1}), [1, 1], pts)
    with pytest.raises(ValueError, match="grid factors must be nonempty"):
        top_coefficient_interpolation(P(7, {(0, 0): 1}), [], pts)
    with pytest.raises(ValueError, match="term point must lie on the grid"):
        interpolation_term(P(7, {(0, 0): 1}), pts, pts, 3, 1)


@given(p=st.sampled_from([2, 3, 257, (1 << 61) - 1, (1 << 89) - 1]) | st.integers(2, (1 << 89) - 1), data=st.data())
def test_difference_product_is_the_plain_product(p, data):
    # exact ints: moduli past 64 bits take no shortcut through a fixed width
    values = data.draw(st.lists(st.integers(0, p - 1), unique=True, max_size=min(p, 12)))
    on_grid = st.sampled_from(values) if values else st.nothing()
    t = data.draw(on_grid | st.integers(0, p - 1))
    assert difference_product(t, values, p) == math.prod(t - u for u in values if u != t) % p


def _random_poly(rng, field, max_degree):
    terms = {}
    for i, j in monomials_up_to(max_degree):
        if rng.random() < 0.4:
            terms[(i, j)] = rng.randrange(field.p)
    return BivariatePolynomial(field, terms)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_top_coefficient_matches_direct_extraction(p):
    rng = random.Random(p * 1000 + 17)
    field = PrimeField(p)
    for _ in range(200):
        na = rng.randrange(1, min(6, p))
        nb = rng.randrange(1, min(6, p))
        A = rng.sample(range(p), na)
        B = rng.sample(range(p), nb)
        f = _random_poly(rng, field, na + nb - 2)
        got = top_coefficient_interpolation(f, [field.element(v) for v in A],
                                            [field.element(v) for v in B])
        assert got == f.coefficient(na - 1, nb - 1)


def test_top_coefficient_linearity():
    rng = random.Random(99)
    field = PrimeField(11)
    A = [field.element(v) for v in (1, 4, 7)]
    B = [field.element(v) for v in (2, 3, 5, 8)]
    for _ in range(50):
        f = _random_poly(rng, field, 5)
        g = _random_poly(rng, field, 5)
        assert top_coefficient_interpolation(f.add(g), A, B) == (
            top_coefficient_interpolation(f, A, B)
            + top_coefficient_interpolation(g, A, B)
        )


def test_vanishing_profile_examples():
    f5 = PrimeField(5)
    f = P(5, {(1, 0): 1, (0, 1): -1})
    grid = [f5.element(1), f5.element(2)]
    assert [(int(t), int(s)) for t, s in vanishing_profile(f, grid, grid)] == [(1, 2), (2, 1)]
    assert vanishing_profile(BivariatePolynomial.zero(f5), grid, grid) == []


def test_min_degree_feasibility_small_grid():
    f5 = PrimeField(5)
    X = [f5.element(1), f5.element(2)]
    Y = [f5.element(3), f5.element(4)]
    for pt in [(1, 3), (1, 4), (2, 3), (2, 4)]:
        r1 = min_degree_feasibility(X, Y, pt, 1, field=f5)
        assert not r1.feasible and r1.witness is None
        r2 = min_degree_feasibility(X, Y, pt, 2, field=f5)
        assert r2.feasible
        profile = vanishing_profile(r2.witness, X, Y)
        assert [(int(t), int(s)) for t, s in profile] == [pt]
        assert r2.witness.evaluate(pt[0], pt[1]).value == 1
        assert r2.witness.degree() <= 2


def test_min_degree_feasibility_lagrange_always_feasible():
    f7 = PrimeField(7)
    X = [f7.element(v) for v in (0, 2, 5)]
    Y = [f7.element(v) for v in (1, 3)]
    lagrange_degree = (len(X) - 1) + (len(Y) - 1)
    for t in (0, 2, 5):
        for s in (1, 3):
            r = min_degree_feasibility(X, Y, (t, s), lagrange_degree, field=f7)
            assert r.feasible
            assert [(int(a), int(b)) for a, b in vanishing_profile(r.witness, X, Y)] == [(t, s)]


def test_min_degree_feasibility_monotone():
    f7 = PrimeField(7)
    X = [f7.element(v) for v in (1, 2, 4)]
    Y = [f7.element(v) for v in (3, 5, 6)]
    feasible_at = [
        min_degree_feasibility(X, Y, (1, 3), d, field=f7).feasible for d in range(7)
    ]
    assert feasible_at.index(True) == len(X) + len(Y) - 2
    for earlier, later in zip(feasible_at, feasible_at[1:]):
        assert later >= earlier


def test_min_degree_feasibility_errors():
    f5 = PrimeField(5)
    X = [f5.element(1), f5.element(2)]
    with pytest.raises(ValueError):
        min_degree_feasibility(X, X, (3, 1), 2, field=f5)
    with pytest.raises(ValueError):
        min_degree_feasibility(X, X, (1, 1), -1, field=f5)
    # the exceptional point is a pair, not a prefix of a longer tuple
    for bad in [(1,), (1, 1, 2), 1, None]:
        with pytest.raises(ValueError, match=r"^exceptional point must be a pair \(t, s\), got "):
            min_degree_feasibility(X, X, bad, 2, field=f5)
    # no polynomial has degree -1, so no grid point is feasible there either
    with pytest.raises(ValueError, match="degree bound"):
        feasible_exceptional_points(X, X, -1, field=f5)


@pytest.mark.parametrize("p", [2, 3, 5, 11, 257])
def test_batch_feasibility_agrees_with_solver(p):
    rng = random.Random(p)
    field = PrimeField(p)
    for _ in range(8):
        # at p = 2 and 3 a factor may be the whole field
        nx = rng.randrange(1, min(5, p + 1))
        ny = rng.randrange(1, min(5, p + 1))
        X = sorted(rng.sample(range(p), nx))
        Y = sorted(rng.sample(range(p), ny))
        for d in range(nx + ny):
            batch = feasible_exceptional_points(X, Y, d, field=field)
            for t in X:
                for s in Y:
                    solo = min_degree_feasibility(X, Y, (t, s), d, field=field)
                    assert solo.feasible == ((t, s) in batch)


# --------------------------------------------------------------------------
# oracles for the grid kernels: the plain forms of the grid sum, the line
# product and the elimination, checked against the fast ones
# --------------------------------------------------------------------------

# 2**31 - 1 and 2**31 + 11 sit on either side of the kernels' int64 limit,
# and past 2**32 - 5 an int64 product of two residues would wrap
_KERNEL_PRIMES = (
    2, 3, 5, 257, 65521, (1 << 31) - 1, (1 << 31) + 11, (1 << 32) - 5, (1 << 61) - 1,
    (1 << 89) - 1,
)


def _grid_sum_oracle(f, A, B):
    """sum over (t, s) in A x B of f(t, s) / (w(t) w(s)), one evaluation per point."""
    p = f.field.p
    total = 0
    for t in A:
        for s in B:
            denom = difference_product(t, A, p) * difference_product(s, B, p)
            total += int(f.evaluate(t, s)) * pow(denom, -1, p)
    return FieldElement(total % p, f.field)


def _line_product_oracle(field, lines):
    out = BivariatePolynomial.constant(field, 1)
    for alpha, beta, gamma in lines:
        out = out.multiply(BivariatePolynomial.linear(field, alpha, beta, gamma))
    return out


def _gauss_jordan_oracle(rows, p):
    """Reduced row echelon form: each pivot clears its column in every other row."""
    m = [[v % p for v in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivot_cols = []
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
        for i in range(n_rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [(vi - factor * vr) % p for vi, vr in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
    return m, pivot_cols


@st.composite
def _grid_factor(draw, p):
    # distinct residues without a filter: a start plus gaps that sum below p
    size = draw(st.sampled_from(range(1, min(7, p) + 1)))  # uniform up to 7
    gap = st.integers(1, (p - 1) // max(size - 1, 1))
    values = [draw(st.integers(0, p - 1))]
    for _ in range(size - 1):
        values.append(values[-1] + draw(gap))
    return [v % p for v in values]


@st.composite
def _grid_case(draw):
    p = draw(st.sampled_from(_KERNEL_PRIMES))
    return p, draw(_grid_factor(p)), draw(_grid_factor(p))


@st.composite
def _line(draw, p):
    # alpha or beta may vanish mod p, but not both: that is no line
    zero, unit = st.sampled_from([0, p, -p]), st.integers(1, p - 1)
    alpha, beta = draw(st.sampled_from([(zero, unit), (unit, zero), (unit, unit)]))
    return draw(alpha), draw(beta), draw(st.integers(-2 * p, 2 * p))


@settings(max_examples=300)
@given(_grid_case(), st.data())
def test_line_product_and_interpolation_match_their_oracles(case, data):
    p, X, Y = case
    field = _field(p, _KERNEL_PRIMES)
    top = len(X) + len(Y) - 2
    count = data.draw(st.sampled_from(range(top + 2)))  # the empty product too
    lines = data.draw(st.lists(_line(p), min_size=count, max_size=count))
    f = line_product(field, lines)
    assert f.terms == _line_product_oracle(field, lines).terms
    assert f.degree() == len(lines)
    coeff = st.integers(0, p - 1)
    g = data.draw(st.sampled_from([f, BivariatePolynomial.zero(field)]) | st.builds(
        lambda terms: BivariatePolynomial(field, terms),
        st.dictionaries(st.sampled_from(monomials_up_to(top)), coeff, max_size=12),
    ))
    if g.degree() > top:
        with pytest.raises(ValueError, match="exceeds"):
            top_coefficient_interpolation(g, X, Y)
        return
    value = top_coefficient_interpolation(g, X, Y)
    assert value == _grid_sum_oracle(g, X, Y)
    assert value == g.coefficient(len(X) - 1, len(Y) - 1)


def _solve_oracle(rows, rhs, p):
    """Gauss-Jordan on [M | rhs]: None if inconsistent, else the solution
    whose free coefficients are 0."""
    n = len(rows[0])
    reduced, pivot_cols = _gauss_jordan_oracle([row + [r] for row, r in zip(rows, rhs)], p)
    if pivot_cols and pivot_cols[-1] == n:
        return None
    solution = [0] * n
    for row, c in zip(reduced, pivot_cols):
        solution[c] = row[n]
    return solution


def _left_null_support_oracle(rows, p):
    """Row indices touched by some left null vector of M, read from the
    null-space basis of M^T (one vector per free column of its Gauss-Jordan
    form)."""
    reduced, pivot_cols = _gauss_jordan_oracle([list(column) for column in zip(*rows)], p)
    free = set(range(len(rows))) - set(pivot_cols)
    return free | {c for row, c in zip(reduced, pivot_cols) if any(row[f] for f in free)}


@settings(max_examples=300)
@given(_grid_case(), st.data())
def test_grid_checks_match_gauss_jordan(case, data):
    p, X, Y = case
    field = _field(p, _KERNEL_PRIMES)
    degree_bound = data.draw(st.integers(0, len(X) + len(Y) - 1))
    point = (data.draw(st.sampled_from(X)), data.draw(st.sampled_from(Y)))
    points, monos, rows = poly._grid_system(X, Y, degree_bound, field)
    rows = rows.tolist()
    assert points == [(t, s) for t in sorted(X) for s in sorted(Y)]
    assert rows == [[pow(t, i, p) * pow(s, j, p) % p for i, j in monos] for t, s in points]

    # the elimination keeps the row space and finds the rank of M, and the
    # rows past the rank are zero on M's columns
    n, rank = len(monos), len(_gauss_jordan_oracle(rows, p)[1])
    rhs = [int(pt == point) for pt in points]
    identity = [[int(k == l) for l in range(len(points))] for k in range(len(points))]
    for matrix in (rows, [row + [r] for row, r in zip(rows, rhs)],
                   [row + unit for row, unit in zip(rows, identity)]):
        m = poly._array(matrix, p)
        pivot_cols = poly._echelon(m, n, p)
        reduced = m.tolist()
        assert _gauss_jordan_oracle(reduced, p) == _gauss_jordan_oracle(matrix, p)
        assert len(pivot_cols) == rank
        assert not any(v for row in reduced[rank:] for v in row[:n])

    got = min_degree_feasibility(X, Y, point, degree_bound, field=field)
    solution = _solve_oracle(rows, rhs, p)
    assert got.feasible == (solution is not None) == (degree_bound >= len(X) + len(Y) - 2)
    want = None if solution is None else BivariatePolynomial(field, zip(monos, solution))
    assert got.witness == want  # the witness's terms too
    dependent = _left_null_support_oracle(rows, p)
    assert feasible_exceptional_points(X, Y, degree_bound, field=field) == {
        pt for k, pt in enumerate(points) if k not in dependent
    }


@settings(max_examples=100)
@given(_grid_case(), st.data())
def test_grid_checks_return_python_ints(case, data):
    # no numpy scalar may escape the array kernels: numpy 2 writes
    # np.int64(3) into reprs and `json.dumps` refuses it
    p, X, Y = case
    field = _field(p, _KERNEL_PRIMES)
    degree_bound = data.draw(st.integers(0, len(X) + len(Y) - 1))
    point = (data.draw(st.sampled_from(X)), data.draw(st.sampled_from(Y)))
    points, monos, rows = poly._grid_system(X, Y, degree_bound, field)
    m = np.hstack([rows, poly._array([[int(pt == point)] for pt in points], p)])
    pivot_cols = poly._echelon(m, len(monos), p)
    # tolist() hands back the objects an object array holds, numpy scalars too
    values = [v for row in rows.tolist() + m.tolist() for v in row] + pivot_cols
    witness = min_degree_feasibility(X, Y, point, degree_bound, field=field).witness
    if witness is not None:
        values += [v for (i, j), c in witness.terms.items() for v in (i, j, c)]
    values += [v for pt in feasible_exceptional_points(X, Y, degree_bound, field=field) for v in pt]
    for q in _KERNEL_PRIMES:
        lines = data.draw(st.lists(_line(q), max_size=len(X) + len(Y)))
        f = line_product(_field(q, _KERNEL_PRIMES), lines)
        values += [v for (i, j), c in f.terms.items() for v in (i, j, c)]
    assert all(type(v) is int for v in values)


def test_grid_kernels_at_the_int64_edge():
    # every entry is p - 1 at p = 2**31 - 1: each product of two residues is
    # (p - 1)**2, just below 2**62, the largest an int64 block ever holds
    p = (1 << 31) - 1
    field = _field(p, _KERNEL_PRIMES)
    points, monos, rows = poly._grid_system([p - 1], [p - 1], 4, field)
    assert points == [(p - 1, p - 1)]
    rows = rows.tolist()
    assert rows == [[pow(p - 1, i, p) * pow(p - 1, j, p) % p for i, j in monos]]
    matrix = [[p - 1] * 6 for _ in range(4)]
    m = poly._array(matrix, p)
    pivot_cols = poly._echelon(m, 4, p)
    reduced = m.tolist()
    assert (reduced, pivot_cols) == ([[1] * 6] + [[0] * 6] * 3, [0])
    assert _gauss_jordan_oracle(reduced, p) == _gauss_jordan_oracle(matrix, p)
    got = min_degree_feasibility([p - 1], [p - 1], (p - 1, p - 1), 4, field=field)
    assert got.witness == BivariatePolynomial(field, zip(monos, _solve_oracle(rows, [1], p)))
    # with every line coefficient p - 1, the line kernel's products reach (p - 1)**2
    lines = [(p - 1, p - 1, p - 1)] * 8
    assert line_product(field, lines).terms == _line_product_oracle(field, lines).terms
