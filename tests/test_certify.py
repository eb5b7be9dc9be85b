import dataclasses
import hashlib
import json
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from nullcert.certify import (
    BOUND_CERTIFIED,
    DIRECTLY_SATISFIED,
    HYPOTHESIS_UNMET,
    THEOREMS,
    Certificate,
    TheoremContradictionError,
    _covered,
    additive_cover_certificate,
    hyperbola_cover_certificate,
    multiplicative_cover_certificate,
    symmetric_pair_certificate,
    symmetric_pair_summand,
    verify_certificate,
)
from nullcert import certify, field as field_module, sets
from nullcert.field import PrimeField
from nullcert.poly import (
    BivariatePolynomial,
    interpolation_term,
    line_product,
    min_degree_feasibility,
    top_coefficient_interpolation,
    vanishing_profile,
)
from nullcert.sets import (
    ElementSet,
    GroupMode,
    exceptional_square_set,
    inverse_set,
    representations,
    restricted_combine,
    symmetric_pair_elements,
)
from nullcert.search import construct_tight_example

from conftest import combine_oracle, nonempty_subsets, rep_count_oracle

ADD = GroupMode.ADDITIVE
MULT = GroupMode.MULTIPLICATIVE


# primes on either side of the cover check's int64 limit, one whose int64
# products would wrap, and one past 64 bits
_LARGE_PRIMES = ((1 << 31) - 1, (1 << 31) + 11, (1 << 32) - 5, (1 << 89) - 1)


def mk(p, mode, values):
    if p not in _LARGE_PRIMES:
        return ElementSet(PrimeField(p), mode, values)
    # the field's trial-division primality test stops at 2**20, so for these
    # primes its check is stood in for here
    with mock.patch.object(field_module, "is_prime", lambda n: n == p):
        return ElementSet(PrimeField(p), mode, values)


def expand_certificate_polynomial(cert: Certificate) -> BivariatePolynomial:
    field = PrimeField(cert.p)
    f = line_product(field, cert.lines)
    if cert.theorem in ("mult", "main"):
        hyperbola = BivariatePolynomial(field, {(1, 1): 1, (0, 0): cert.p - 1})
        f = f.multiply(hyperbola)
    return f


def grid_of(cert: Certificate):
    field = PrimeField(cert.p)
    xvals = list(cert.A)
    if cert.theorem == "additive":
        yvals = list(cert.B)
    else:
        yvals = sorted(pow(v, -1, cert.p) for v in cert.B)
    return [field.element(v) for v in xvals], [field.element(v) for v in yvals]


# ---------------------------------------------------------------- additive


def test_additive_certificate_example():
    cert = additive_cover_certificate(mk(7, ADD, [0, 1]), mk(7, ADD, [1, 2]), 1)
    assert cert.verdict == BOUND_CERTIFIED
    assert cert.exceptional == ((0, 1),)
    assert cert.degree == 3  # |A +. B| = 3 lines
    assert not cert.tight
    ok, problems = verify_certificate(cert)
    assert ok, problems


def test_additive_two_representations_unmet():
    # c = 4 mod 7 via (0, 4) and (3, 1)
    cert = additive_cover_certificate(mk(7, ADD, [0, 3]), mk(7, ADD, [1, 4]), 4)
    assert cert.verdict == HYPOTHESIS_UNMET
    ok, problems = verify_certificate(cert)
    assert ok, problems


def test_additive_singleton_sets():
    cert = additive_cover_certificate(mk(7, ADD, [2]), mk(7, ADD, [5]), 0)
    assert cert.verdict == BOUND_CERTIFIED
    assert cert.degree == 1  # just the diagonal line
    assert cert.exceptional == ((2, 5),)
    ok, problems = verify_certificate(cert)
    assert ok, problems


def test_additive_mode_check():
    with pytest.raises(ValueError):
        additive_cover_certificate(mk(7, MULT, [1, 2]), mk(7, MULT, [2, 3]), 3)
    A, B = mk(7, ADD, [1, 2, 4]), mk(7, ADD, [2, 3])
    with pytest.raises(ValueError, match="hyperbola certificate needs multiplicative"):
        hyperbola_cover_certificate(A, B)
    with pytest.raises(ValueError, match="symmetric-pair certificate needs a multiplicative"):
        symmetric_pair_certificate(A, 3)
    with pytest.raises(ValueError, match="summand needs a multiplicative"):
        symmetric_pair_summand(1, 2, A, 3)


@pytest.mark.parametrize("p", [5, 7])
def test_additive_certificates_exhaustive(p):
    field = PrimeField(p)
    for A_vals in nonempty_subsets(range(p)):
        A = ElementSet(field, ADD, A_vals)
        for B_vals in nonempty_subsets(range(p)):
            B = ElementSet(field, ADD, B_vals)
            counts = rep_count_oracle("add", p, A_vals, B_vals, restricted=True)
            for c, k in counts.items():
                if k != 1:
                    continue
                cert = additive_cover_certificate(A, B, c)
                assert cert.verdict == BOUND_CERTIFIED
                ok, problems = verify_certificate(cert)
                assert ok, problems


# ------------------------------------------------------------ multiplicative


def test_multiplicative_certificate_example():
    cert = multiplicative_cover_certificate(mk(7, MULT, [1, 2]), mk(7, MULT, [2, 3]), 3)
    assert cert.verdict == BOUND_CERTIFIED
    assert cert.exceptional == ((1, 5),)  # (a, b^-1) = (1, 3^-1)
    assert cert.degree == 4  # |A x. B| + 1
    assert not cert.tight
    ok, problems = verify_certificate(cert)
    assert ok, problems
    # dual route: expanding the recorded factors gives the same profile
    f = expand_certificate_polynomial(cert)
    X, Y = grid_of(cert)
    profile = [(int(t), int(s)) for t, s in vanishing_profile(f, X, Y)]
    assert profile == [(1, 5)]
    assert f.degree() == cert.degree


def test_multiplicative_diagonal_only_rep_unmet():
    cert = multiplicative_cover_certificate(mk(7, MULT, [2]), mk(7, MULT, [2]), 4)
    assert cert.verdict == HYPOTHESIS_UNMET
    ok, problems = verify_certificate(cert)
    assert ok, problems


def test_multiplicative_tight_family():
    ex = construct_tight_example(5)
    cert = multiplicative_cover_certificate(ex.A, ex.B, ex.c)
    assert cert.verdict == BOUND_CERTIFIED
    assert cert.tight
    assert cert.degree == ex.product_size + 1 == 2 * 5 - 3
    ok, problems = verify_certificate(cert)
    assert ok, problems


@pytest.mark.parametrize("p", [5, 7])
def test_multiplicative_certificates_exhaustive(p):
    field = PrimeField(p)
    for A_vals in nonempty_subsets(range(1, p)):
        A = ElementSet(field, MULT, A_vals)
        for B_vals in nonempty_subsets(range(1, p)):
            B = ElementSet(field, MULT, B_vals)
            counts = rep_count_oracle("mult", p, A_vals, B_vals, restricted=True)
            for c, k in counts.items():
                if k != 1:
                    continue
                cert = multiplicative_cover_certificate(A, B, c)
                assert cert.verdict == BOUND_CERTIFIED
                ok, problems = verify_certificate(cert)
                assert ok, problems


# ------------------------------------------------------------------ summand


def test_summand_two_element_set():
    # n = 2 reduces to a*b / (a - b): hand expansion of the one-factor case
    f7 = PrimeField(7)
    A = mk(7, MULT, [2, 3])
    assert symmetric_pair_summand(2, 3, A, 6).value == (6 * pow(-1 % 7, -1, 7)) % 7 == 1
    assert symmetric_pair_summand(3, 2, A, 6).value == 6
    # and the raw grid term of f = xy - 1 differs by the factor b^(m - (2n-4))
    f = BivariatePolynomial(f7, {(1, 1): 1, (0, 0): 6})
    a_inv = [int(x) for x in inverse_set(A).values]
    raw = interpolation_term(f, list(A.values), sorted(a_inv), 2, pow(3, -1, 7))
    assert raw.value == 5
    assert symmetric_pair_summand(2, 3, A, 6).value == raw.value * pow(3, 1, 7) % 7


def test_summand_preconditions():
    A = mk(7, MULT, [2, 3])
    with pytest.raises(ValueError):
        symmetric_pair_summand(2, 2, A, 4)
    with pytest.raises(ValueError):
        symmetric_pair_summand(2, 5, A, 3)
    with pytest.raises(ValueError):
        symmetric_pair_summand(2, 3, A, 5)  # c != a*b
    with pytest.raises(ValueError):
        symmetric_pair_summand(2, 3, A, None)  # no target


def _theorem_polynomial(field, A_vals, c):
    """(xy - 1) * prod over the other restricted products of (x - g y)."""
    p = field.p
    prods = sorted(combine_oracle("mult", p, A_vals, A_vals, restricted=True))
    lines = [(1, (-g) % p, 0) for g in prods if g != c]
    hyperbola = BivariatePolynomial(field, {(1, 1): 1, (0, 0): p - 1})
    return line_product(field, lines).multiply(hyperbola), len(prods)


def _valid_instances(p, max_size=5):
    field = PrimeField(p)
    out = []
    for A_vals in nonempty_subsets(range(1, p)):
        if not 2 <= len(A_vals) <= max_size:
            continue
        A = ElementSet(field, MULT, A_vals)
        for c in symmetric_pair_elements(A, A).values:
            out.append((A, c))
    return out


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_summand_ratio_identity_exhaustive(p):
    # summand(b, a) = -(b/a)^(n-2) * summand(a, b), for every valid instance
    # with |A| <= 5
    for A, c in _valid_instances(p, max_size=5):
        reps = representations(A, A, c, restricted=True)
        a, b = reps[0].a, reps[0].b
        n = len(A)
        s_ab = symmetric_pair_summand(a, b, A, c)
        s_ba = symmetric_pair_summand(b, a, A, c)
        ratio = -(b / a) ** (n - 2)
        assert s_ba == ratio * s_ab
        # the sum vanishes exactly on power-tied pairs
        tied = pow(a.value, n - 2, p) == pow(b.value, n - 2, p)
        assert ((s_ab + s_ba).value == 0) == tied


@pytest.mark.parametrize("p", [7, 11, 13])
def test_summand_matches_raw_grid_term(p):
    # closed form == raw term * b^(m - (2n - 4)); equality when m = 2n - 4
    field = PrimeField(p)
    rng = random.Random(p)
    instances = _valid_instances(p, max_size=5)
    rng.shuffle(instances)
    for A, c in instances[:60]:
        reps = representations(A, A, c, restricted=True)
        a, b = reps[0].a, reps[0].b
        n = len(A)
        f, m = _theorem_polynomial(field, list(A.values), c)
        if f.degree() > 2 * n - 2:
            continue
        a_inv = sorted(pow(v, -1, p) for v in A.values)
        raw = interpolation_term(f, list(A.values), a_inv, a.value, int(b.inverse()))
        fudge = pow(b.value, (m - (2 * n - 4)) % (p - 1), p)
        assert symmetric_pair_summand(a, b, A, c).value == raw.value * fudge % p
        if m == 2 * n - 4:
            assert symmetric_pair_summand(a, b, A, c) == raw


def test_summand_equals_raw_term_on_tight_family():
    # m = 2n - 4 exactly: closed form and raw Eq-term agree, and their sum is
    # the (vanishing) top coefficient
    f5 = PrimeField(5)
    A = mk(5, MULT, [1, 2, 3, 4])
    c = 1  # reps (2,3),(3,2)
    f, m = _theorem_polynomial(f5, [1, 2, 3, 4], c)
    n = 4
    assert m == 2 * n - 4
    a_inv = sorted(pow(v, -1, 5) for v in A.values)
    raw_23 = interpolation_term(f, [1, 2, 3, 4], a_inv, 2, pow(3, -1, 5))
    raw_32 = interpolation_term(f, [1, 2, 3, 4], a_inv, 3, pow(2, -1, 5))
    s_23 = symmetric_pair_summand(2, 3, A, c)
    s_32 = symmetric_pair_summand(3, 2, A, c)
    assert s_23 == raw_23 and s_32 == raw_32
    total = top_coefficient_interpolation(f, [1, 2, 3, 4], a_inv)
    assert total == s_23 + s_32
    assert total.value == 0  # deg f = 2n - 3 < 2n - 2 forces the coefficient to 0


# ------------------------------------------------------ symmetric-pair bound


def test_pair_certificate_two_element_set():
    cert = symmetric_pair_certificate(mk(7, MULT, [2, 3]), 6)
    assert cert.verdict == DIRECTLY_SATISFIED
    assert cert.tight  # |A x. A| = 1 = 2n - 3
    assert cert.summands == (1, 6)
    ok, problems = verify_certificate(cert)
    assert ok, problems


def test_pair_certificate_builds_the_product_set_once(monkeypatch):
    # a DirectlySatisfied build hands its one product set P to both
    # summands, which stay the public closed form's values; the certificates
    # of every such instance at p = 11 keep the bytes they had when each
    # summand built P again
    calls = []
    real = certify.restricted_combine
    monkeypatch.setattr(certify, "restricted_combine", lambda A, B: calls.append(A) or real(A, B))
    digest, built = hashlib.sha256(), 0
    for values in nonempty_subsets(range(1, 11)):
        A = mk(11, MULT, values)
        for c in range(1, 11):
            calls.clear()
            cert = symmetric_pair_certificate(A, c)
            if cert.verdict != DIRECTLY_SATISFIED:
                continue
            assert len(calls) == 1, (values, c)
            first = representations(A, A, c, restricted=True)[0]
            assert cert.summands == (symmetric_pair_summand(first.a, first.b, A, c).value,
                                     symmetric_pair_summand(first.b, first.a, A, c).value)
            built += 1
            digest.update(cert.to_json().encode())
    assert built == 3985
    assert digest.hexdigest() == "de09a9fb8b12f668c89b08f36b45d7ec5ce902d83f68fa43e82b4eedf884e8b4"


def test_pair_certificate_tight_family_power_tied():
    ex = construct_tight_example(4)
    cert = symmetric_pair_certificate(ex.A, 1)
    assert cert.verdict == HYPOTHESIS_UNMET
    ok, problems = verify_certificate(cert)
    assert ok, problems


def test_pair_certificate_wrong_rep_count_unmet():
    # c = 2 in GF(5)* has four restricted representations
    cert = symmetric_pair_certificate(mk(5, MULT, [1, 2, 3, 4]), 2)
    assert cert.verdict == HYPOTHESIS_UNMET


@pytest.mark.parametrize("p", [5, 7, 11])
def test_pair_certificates_exhaustive(p):
    contradictions = 0
    for A, c in _valid_instances(p, max_size=4):
        try:
            cert = symmetric_pair_certificate(A, c)
        except TheoremContradictionError:
            contradictions += 1
            continue
        reps = representations(A, A, c, restricted=True)
        a, b = reps[0].a, reps[0].b
        n = len(A)
        tied = pow(a.value, n - 2, p) == pow(b.value, n - 2, p)
        m = len(restricted_combine(A, A))
        if m >= 2 * n - 3:
            assert cert.verdict == DIRECTLY_SATISFIED
        else:
            assert tied and cert.verdict == HYPOTHESIS_UNMET
        if not tied:
            assert cert.verdict == DIRECTLY_SATISFIED
        ok, problems = verify_certificate(cert)
        assert ok, problems
    assert contradictions == 0


# ------------------------------------------------------------------- cover


def test_hyperbola_certificate_example():
    cert = hyperbola_cover_certificate(mk(7, MULT, [1, 2]), mk(7, MULT, [1, 2]))
    assert cert.verdict == BOUND_CERTIFIED
    assert cert.exceptional == ((1, 1),)
    assert cert.degree == 2  # one ratio line + floor(2/2) cover lines
    assert cert.tight
    ok, problems = verify_certificate(cert)
    assert ok, problems


def test_hyperbola_single_point_exceptional_set():
    cert = hyperbola_cover_certificate(mk(7, MULT, [1]), mk(7, MULT, [1]))
    assert cert.verdict == BOUND_CERTIFIED
    assert cert.exceptional == ((1, 1),)
    assert cert.degree == 0  # empty product; the lone grid point survives
    assert cert.tight
    ok, problems = verify_certificate(cert)
    assert ok, problems


def test_hyperbola_empty_exceptional_set_unmet():
    cert = hyperbola_cover_certificate(mk(7, MULT, [1, 2, 4]), mk(7, MULT, [1, 2, 4]))
    assert cert.verdict == HYPOTHESIS_UNMET
    ok, problems = verify_certificate(cert)
    assert ok, problems


@pytest.mark.parametrize("p,values", [(7, [1, 6]), (3, [1, 2])])
def test_hyperbola_antipodal_leftover_point(p, values):
    # leftover point u = -a*: a ratio line through u would also cover the
    # designated survivor; the vertical line must not
    cert = hyperbola_cover_certificate(mk(p, MULT, values), mk(p, MULT, values))
    assert cert.verdict == BOUND_CERTIFIED
    a_star = min(values)
    assert cert.exceptional == ((a_star, pow(a_star, -1, p)),)
    ok, problems = verify_certificate(cert)
    assert ok, problems


@pytest.mark.parametrize("p", [3, 5, 7])
def test_hyperbola_certificates_exhaustive(p):
    field = PrimeField(p)
    built = 0
    for A_vals in nonempty_subsets(range(1, p)):
        A = ElementSet(field, MULT, A_vals)
        for B_vals in nonempty_subsets(range(1, p)):
            B = ElementSet(field, MULT, B_vals)
            cert = hyperbola_cover_certificate(A, B)
            expected_empty = not any(
                a * a % p not in combine_oracle("mult", p, A_vals, B_vals, True)
                for a in set(A_vals) & set(B_vals)
            )
            if expected_empty:
                assert cert.verdict == HYPOTHESIS_UNMET
                continue
            built += 1
            assert cert.verdict == BOUND_CERTIFIED
            ok, problems = verify_certificate(cert)
            assert ok, problems
            # dual route: expanded polynomial has the same profile
            f = expand_certificate_polynomial(cert)
            X, Y = grid_of(cert)
            profile = [(int(t), int(s)) for t, s in vanishing_profile(f, X, Y)]
            assert profile == [cert.exceptional[0]]
    assert built > 0


# ------------------------------------------------------- certificate bytes


def _pinned_builds():
    """Every builder on every instance at p <= 5, every `cover` instance at
    p = 7 (39 of them need a secant), and `mult` on the tight family."""
    for p in (2, 3, 5):
        for theorem, spec in THEOREMS.items():
            if spec.build is None:
                continue
            residues = range(p) if spec.mode is ADD else range(1, p)
            sets = [mk(p, spec.mode, values) for values in nonempty_subsets(residues)]
            for A in sets:
                for B in sets if spec.pair else [A]:
                    for c in [None] if theorem == "cover" else residues:
                        yield spec.build(A, B, c)
    sets = [mk(7, MULT, values) for values in nonempty_subsets(range(1, 7))]
    for A in sets:
        for B in sets:
            yield hyperbola_cover_certificate(A, B)
    for n in range(4, 11):
        ex = construct_tight_example(n)
        yield multiplicative_cover_certificate(ex.A, ex.B, ex.c)


def test_certificate_bytes_are_pinned():
    digest = hashlib.sha256()
    for cert in _pinned_builds():
        digest.update(cert.to_json().encode())
    assert digest.hexdigest() == (
        "5b64915c9c8bcfed31ec3b62fc26205d7e4cc0c58a944c05cc9ae5fd2851b844"
    )


def test_each_build_makes_one_combine_table(monkeypatch):
    # a builder reads c's representations, the restricted combine and N from
    # one table of (A, B), a `main` build from one table of (A, A); a rebuild
    # makes its own, and so does each set-level call outside a build
    tables = []
    real = sets._Table
    monkeypatch.setattr(sets, "_Table", lambda *args: tables.append(args) or real(*args))
    A, B = mk(13, MULT, [1, 2, 4, 5]), mk(13, MULT, [2, 3, 4])
    for build in (
        lambda: additive_cover_certificate(mk(13, ADD, [0, 1, 3]), mk(13, ADD, [1, 5]), 1),
        lambda: multiplicative_cover_certificate(A, B, 3),
        lambda: hyperbola_cover_certificate(mk(7, MULT, [1, 2, 5]), mk(7, MULT, [1, 2, 5])),
        lambda: symmetric_pair_certificate(mk(7, MULT, [2, 3]), 6),
    ):
        tables.clear()
        cert = build()
        assert cert.verdict != HYPOTHESIS_UNMET and len(tables) == 1, cert
        tables.clear()
        assert verify_certificate(cert) == (True, []) and len(tables) == 1
    # with the main offset lowered to 2 the `main` build raises the contradiction
    monkeypatch.setitem(THEOREMS, "main", dataclasses.replace(THEOREMS["main"], offset=2))
    tables.clear()
    with pytest.raises(TheoremContradictionError):
        symmetric_pair_certificate(mk(13, MULT, [1, 2, 4]), 2)
    assert len(tables) == 1
    tables.clear()
    assert restricted_combine(A, B) == restricted_combine(A, B) and len(tables) == 2


# ------------------------------------------------------- cover check failures


def test_cover_check_rejects_a_dropped_secant():
    # N = {1, 2, 5}: a* = 1 stays uncovered, one secant through (2, 4), (5, 3)
    A = mk(7, MULT, [1, 2, 5])
    cert = hyperbola_cover_certificate(A, A)
    assert len(exceptional_square_set(A, A)) == 3
    lines, grid, point = list(cert.lines), inverse_set(A).values, cert.exceptional[0]
    size = len(restricted_combine(A, A))
    assert _covered("cover", A, A, None, lines, False, grid, (point,), size, 1) == cert
    with pytest.raises(AssertionError, match=r"\(2, 4\), \(5, 3\)"):
        _covered("cover", A, A, None, lines[:-1], False, grid, (point,), size, 1)


def test_cover_check_rejects_a_size_below_the_bound():
    A, B = mk(7, ADD, [0, 1]), mk(7, ADD, [1, 2])
    cert = additive_cover_certificate(A, B, 1)
    lines, point = list(cert.lines), cert.exceptional[0]
    assert _covered("additive", A, B, 1, lines, False, B.values, (point,), 3) == cert
    with pytest.raises(TheoremContradictionError, match="1 < 2"):
        _covered("additive", A, B, 1, lines, False, B.values, (point,), 1)


def test_cover_check_rejects_an_extra_line_through_the_exceptional_point():
    # the vertical line x = a* covers the one point the cover must leave
    A = mk(7, MULT, [1, 2, 5])
    cert = hyperbola_cover_certificate(A, A)
    point = cert.exceptional[0]
    lines, grid = list(cert.lines) + [(1, 0, -point[0])], inverse_set(A).values
    size = len(restricted_combine(A, A))
    with pytest.raises(AssertionError, match=r"cover profile \[\] !="):
        _covered("cover", A, A, None, lines, False, grid, (point,), size, 1)


def _product_profile(p, A, lines, hyperbola, grid):
    """Slow oracle: multiply the factors out at every grid point."""
    profile = []
    for t in A:
        for s in grid:
            v = (t * s - 1) % p if hyperbola else 1
            for alpha, beta, gamma in lines:
                v = v * (alpha * t + beta * s + gamma) % p
            if v:
                profile.append((t, s))
    return profile


@st.composite
def _cover_checks(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, *_LARGE_PRIMES]))
    if p < 100:
        residue, size = st.integers(0, p - 1), p
        coefficient = st.integers(-2 * p, 3 * p)  # unreduced on purpose
    else:
        # residues near 0 and near p, so that lines meet grid points and the
        # products the check forms reach (p - 1)**2
        residue, size = st.sampled_from([0, 1, 2, 3, p - 3, p - 2, p - 1]) | st.integers(0, p - 1), 8
        coefficient = st.builds(lambda r, k: r + k * p, residue, st.integers(-2, 2))
    A = draw(st.lists(residue, min_size=1, max_size=size, unique=True))
    grid = draw(st.lists(residue, max_size=size, unique=True))
    line = st.one_of(
        st.tuples(coefficient, coefficient, coefficient),
        st.tuples(coefficient, st.integers(-2, 2).map(lambda k: k * p), coefficient),
        st.tuples(st.just(0), st.just(0), coefficient),
    )
    return p, A, draw(st.lists(line, max_size=8)), draw(st.booleans()), grid


@settings(max_examples=400)
@given(_cover_checks())
def test_cover_profile_matches_the_product_loop(case):
    p, A_vals, lines, hyperbola, grid = case
    A = mk(p, ADD, A_vals)
    expected = _product_profile(p, A.values, lines, hyperbola, grid)
    # (-1, -1) lies off every grid, so the check always fails and prints its profile
    with pytest.raises(AssertionError) as failure:
        _covered("additive", A, A, None, lines, hyperbola, grid, ((-1, -1),), 2 * p)
    assert str(failure.value) == f"cover profile {expected} != [(-1, -1)]"


def test_cover_check_at_the_int64_edge():
    # every entry is p - 1 at p = 2**31 - 1: the slope and the row value are
    # both p - 1, so the check forms (p - 1)**2 + (p - 1), just below 2**62
    p = (1 << 31) - 1
    A, lines, grid = mk(p, ADD, [p - 1]), [(p - 1, p - 1, p - 1)] * 3, [p - 1]
    for hyperbola in (False, True):
        expected = _product_profile(p, A.values, lines, hyperbola, grid)
        assert expected == ([] if hyperbola else [(p - 1, p - 1)])
        with pytest.raises(AssertionError) as failure:
            _covered("additive", A, A, None, lines, hyperbola, grid, ((-1, -1),), 2 * p)
        assert str(failure.value) == f"cover profile {expected} != [(-1, -1)]"


@pytest.mark.parametrize("p", [257, (1 << 89) - 1])
def test_certificates_hold_python_ints(monkeypatch, p):
    # `json_text` hands anything but an exact int to `json.dumps`, which
    # refuses numpy integers
    monkeypatch.setattr(field_module, "is_prime", lambda n: n == p)
    U = mk(p, MULT, [2, 3, 5])
    built = [
        additive_cover_certificate(mk(p, ADD, [1, 2, 7]), mk(p, ADD, [3, 4]), 4),
        multiplicative_cover_certificate(mk(p, MULT, [1, 2, 7]), mk(p, MULT, [3, 4]), 3),
        hyperbola_cover_certificate(U, U),
    ]
    for cert in built:
        assert cert.verdict == BOUND_CERTIFIED, cert
        values = [v for line in cert.lines for v in line]
        values += [v for pt in cert.exceptional for v in pt] + [cert.degree]
        assert all(type(v) is int for v in values)
        assert Certificate.from_json(cert.to_json()) == cert


def test_certificates_are_exact_above_64_bits(monkeypatch):
    # the field's trial-division primality test stops at 2**20; 2**89 - 1 is a
    # Mersenne prime, so its check is stood in for here
    p = (1 << 89) - 1
    monkeypatch.setattr(field_module, "is_prime", lambda n: n == p)
    A, B = [1, 2, 1 << 70], [3, (1 << 80) + 5]
    U = mk(p, MULT, [2, 3, (1 << 70) + 1])  # N = U: a* and one secant
    built = [
        additive_cover_certificate(mk(p, ADD, A), mk(p, ADD, B), 4),
        multiplicative_cover_certificate(mk(p, MULT, A), mk(p, MULT, B), 3),
        hyperbola_cover_certificate(U, U),
    ]
    for cert in built:
        assert cert.verdict == BOUND_CERTIFIED, cert
        assert verify_certificate(Certificate.from_json(cert.to_json())) == (True, [])
    assert len(built[2].lines) == len(restricted_combine(U, U)) + 1


# --------------------------------------------------- re-validation battery


def _sample_certificates():
    yield additive_cover_certificate(mk(7, ADD, [0, 1]), mk(7, ADD, [1, 2]), 1)
    yield multiplicative_cover_certificate(mk(7, MULT, [1, 2]), mk(7, MULT, [2, 3]), 3)
    ex = construct_tight_example(4)
    yield multiplicative_cover_certificate(ex.A, ex.B, ex.c)
    yield hyperbola_cover_certificate(mk(7, MULT, [1, 2]), mk(7, MULT, [1, 2]))
    yield hyperbola_cover_certificate(mk(11, MULT, [1, 2, 5]), mk(11, MULT, [1, 2, 5]))


def test_bound_certificates_revalidate():
    for cert in _sample_certificates():
        if cert.verdict != BOUND_CERTIFIED:
            continue
        ok, problems = verify_certificate(cert)
        assert ok, problems
        # (b) degree equals the factor count
        hyper = 2 if cert.theorem in ("mult", "main") else 0
        assert cert.degree == len(cert.lines) + hyper
        # (d) for tight certificates the degree is minimal: one less is
        # infeasible on the same grid with the same exceptional point
        X, Y = grid_of(cert)
        if cert.degree == len(X) + len(Y) - 2:
            r = min_degree_feasibility(
                X, Y, cert.exceptional[0], cert.degree - 1, field=PrimeField(cert.p)
            )
            assert not r.feasible


def test_json_round_trip_and_tampering():
    cert = multiplicative_cover_certificate(mk(7, MULT, [1, 2]), mk(7, MULT, [2, 3]), 3)
    clone = Certificate.from_json(cert.to_json())
    assert clone == cert
    assert verify_certificate(clone)[0]
    data = cert.to_json_dict()
    data["degree"] = 3
    assert not verify_certificate(data)[0]
    data = cert.to_json_dict()
    data["lines"] = data["lines"][1:]
    assert not verify_certificate(data)[0]
    data = cert.to_json_dict()
    data["tight"] = True
    assert not verify_certificate(data)[0]
    data = cert.to_json_dict()
    data["verdict"] = HYPOTHESIS_UNMET
    assert not verify_certificate(data)[0]
    # a factor list must be the canonical one the builder writes: padded
    # (with the degree raised to match) or reordered lists are forgeries
    additive = additive_cover_certificate(mk(7, ADD, [1, 2]), mk(7, ADD, [2, 3]), 3)
    data = additive.to_json_dict()
    data["lines"].append([1, 1, 0])
    data["degree"] += 1
    assert not verify_certificate(data)[0]
    data = additive.to_json_dict()
    data["lines"].reverse()
    assert not verify_certificate(data)[0]
    # a single-set certificate must record B = A
    data = symmetric_pair_certificate(mk(7, MULT, [2, 3]), 6).to_json_dict()
    data["B"] = [5]
    assert not verify_certificate(data)[0]


def test_contradiction_payload_writes_two_exceptional_points(monkeypatch):
    # with the main offset lowered to 2, A = {1, 2, 4} at p = 13 has 3 < 4
    # restricted products and c = 2 = 1 * 2 with 1 != 2: the builder raises
    # and its payload records both grid points (a, 1/b) and (b, 1/a)
    monkeypatch.setitem(THEOREMS, "main", dataclasses.replace(THEOREMS["main"], offset=2))
    with pytest.raises(TheoremContradictionError) as raised:
        symmetric_pair_certificate(mk(13, MULT, [1, 2, 4]), 2)
    payload = raised.value.payload
    assert payload.to_json_dict()["exceptional"] == [[1, 7], [2, 1]]
    assert Certificate.from_json(payload.to_json()) == payload


# theorem: (mode, hyperbola, largest set swept); the grid is B, or B^-1 when
# the mode is multiplicative
_COVERS = {"additive": (ADD, False, 3), "mult": (MULT, True, 4), "cover": (MULT, False, 4),
           "main": (MULT, True, 6)}


def _weakened_instances(theorem, p):
    """(A, B, c, expected to raise) for every instance meeting the hypothesis
    of `theorem` at `p`: with its offset lowered by one, the builder must raise
    exactly on the tight ones (for `main`, those with distinct (n-2)-th powers)."""
    mode, _, largest = _COVERS[theorem]
    units = range(p) if mode is ADD else range(1, p)
    sets = [mk(p, mode, s) for s in nonempty_subsets(units) if len(s) <= largest]
    pairs = [(A, A) for A in sets] if theorem == "main" else [(A, B) for A in sets for B in sets]
    for A, B in pairs:
        for c in [None] if theorem == "cover" else units:
            cert = THEOREMS[theorem].build(A, B, c)
            if cert.verdict == HYPOTHESIS_UNMET:
                continue
            if theorem == "main":
                rep, n = representations(A, A, c, restricted=True)[0], len(A)
                a, b = rep.a.value, rep.b.value
                yield A, B, c, cert.tight and pow(a, n - 2, p) != pow(b, n - 2, p)
            else:
                yield A, B, c, cert.tight


@pytest.mark.parametrize("theorem", list(_COVERS))
@pytest.mark.parametrize("p", [5, 7])
def test_contradiction_payloads_match_the_polynomial_route(monkeypatch, theorem, p):
    # the polynomial route is the oracle: expand the product of the factors
    # and interpolate its top coefficient over the whole grid
    _, hyperbola, _ = _COVERS[theorem]
    instances = list(_weakened_instances(theorem, p))
    spec = THEOREMS[theorem]
    monkeypatch.setitem(THEOREMS, theorem, dataclasses.replace(spec, offset=spec.offset - 1))
    raised = 0
    for A, B, c, expected in instances:
        if not expected:
            continue
        with pytest.raises(TheoremContradictionError) as failure:
            spec.build(A, B, c)
        payload, raised = failure.value.payload, raised + 1
        grid = B.values if A.mode is ADD else inverse_set(B).values
        assert payload.exceptional == tuple(
            _product_profile(p, A.values, payload.lines, hyperbola, grid)
        )
        assert Certificate.from_json(payload.to_json()) == payload
        f = line_product(PrimeField(p), payload.lines)
        if hyperbola:
            f = f.multiply(BivariatePolynomial(PrimeField(p), {(1, 1): 1, (0, 0): p - 1}))
        assert payload.degree == f.degree()
        if f.degree() <= len(A) + len(grid) - 2:
            assert payload.top_coefficient == top_coefficient_interpolation(f, A.values, grid).value
        else:
            assert payload.top_coefficient is None
        # every factor is needed: without the last one the profile check fails
        size = len(restricted_combine(A, B))
        extra = len(exceptional_square_set(A, B)) // 2 if theorem == "cover" else 0
        if payload.lines:
            with pytest.raises(AssertionError, match="cover profile"):
                _covered(theorem, A, B, payload.c, list(payload.lines[:-1]), hyperbola, grid,
                         payload.exceptional, size, extra)
    assert raised > 0


def test_main_contradiction_past_the_interpolation_degree(monkeypatch):
    # offset 1: A = {1, 2, 3, 4} at p = 13 has 6 < 7 restricted products and
    # 2 = 1 * 2 only; the degree-7 cover exceeds |A| + |A^-1| - 2 = 6, so the
    # grid sum is not the coefficient and none is recorded
    monkeypatch.setitem(THEOREMS, "main", dataclasses.replace(THEOREMS["main"], offset=1))
    with pytest.raises(TheoremContradictionError, match="6 < 7") as raised:
        symmetric_pair_certificate(mk(13, MULT, [1, 2, 3, 4]), 2)
    payload = raised.value.payload
    assert (payload.degree, payload.top_coefficient) == (7, None)
    assert payload.exceptional == ((1, 7), (2, 1))


# JSON values of every kind, for fuzzing the certificate reader
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-50, 50)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)
_json_values = st.recursive(
    _json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=6,
)
# shallow values, with integer lists and lists of those, the shapes certificates use
_field_values = _json_leaves | st.lists(
    _json_leaves | st.lists(st.integers(-5, 12), max_size=3), max_size=3
)
_CERT_KEYS = sorted(
    additive_cover_certificate(mk(7, ADD, [0, 1]), mk(7, ADD, [1, 2]), 1).to_json_dict()
)


def _valid_certificates():
    yield from _sample_certificates()
    yield additive_cover_certificate(mk(7, ADD, [0, 3]), mk(7, ADD, [1, 4]), 4)
    yield symmetric_pair_certificate(mk(7, MULT, [2, 3]), 6)
    yield symmetric_pair_certificate(construct_tight_example(4).A, 1)
    yield hyperbola_cover_certificate(mk(7, MULT, [1, 2, 4]), mk(7, MULT, [1, 2, 4]))


_VALID = [cert.to_json_dict() for cert in _valid_certificates()]


def _rejected(data) -> bool:
    """True when `data` is refused: (False, problems) or a ValueError."""
    try:
        ok, problems = verify_certificate(Certificate.from_json_dict(data))
    except ValueError:
        return True
    return not ok and bool(problems)


@settings(max_examples=150)
@given(
    st.one_of(
        _json_values,
        st.fixed_dictionaries({key: _field_values for key in _CERT_KEYS}),
    )
)
def test_fuzzed_certificate_json_is_rejected_cleanly(data):
    assert _rejected(data)


@pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 100_000, '[{"a":' * 50_000])
def test_deeply_nested_json_is_a_malformed_certificate(text):
    # the decoder gives up past the recursion limit; that is malformed input too
    with pytest.raises(ValueError, match=r"^malformed certificate: JSON nested too deeply$"):
        Certificate.from_json(text)


def test_int_lists_keep_every_check_of_the_element_loop():
    # a list of plain ints passes whole; any other goes element by element,
    # so a bool or a float is still refused with the element's message, and an
    # int subclass is still accepted as the int it is
    class Residue(int):
        pass

    data = _VALID[0]
    for key, bad in (("A", [1, True]), ("B", [2.0]), ("lines", [[1, 1, False]]), ("summands", [1, "2"])):
        what = {"lines": "line", "summands": "summands"}.get(key, key)
        with pytest.raises(ValueError, match=rf"^malformed certificate: {what} must be an integer$"):
            Certificate.from_json_dict({**data, key: bad})
    # the lines, and the exceptional points, pass in one check while every row
    # is a list of plain ints; a bad row after good ones keeps its own message
    good = [1, 1, 0]
    for bad, why in (([1, True, 0], "must be an integer"), ([1, 1.0, 0], "must be an integer"),
                     ([1, 1], "must be a list of 3 integers"), ("1, 1, 0", "must be a list of 3 integers")):
        with pytest.raises(ValueError, match=rf"^malformed certificate: line {why}$"):
            Certificate.from_json_dict({**data, "lines": [good, good, bad]})
    with pytest.raises(ValueError, match=r"^malformed certificate: exceptional point must be an integer$"):
        Certificate.from_json_dict({**data, "exceptional": [[1, 2], [3, False]]})
    lines = Certificate.from_json_dict({**data, "lines": [good, [Residue(1), 2, 3]]}).lines
    assert lines == ((1, 1, 0), (1, 2, 3)) and type(lines[1][0]) is Residue
    parsed = Certificate.from_json_dict({**data, "A": [Residue(v) for v in data["A"]]})
    assert parsed == Certificate.from_json_dict(data)
    assert all(type(v) is Residue for v in parsed.A)
    assert all(type(v) is int for v in Certificate.from_json_dict(data).A)


# The inputs fix the canonical certificate; the remaining fields record the proof.
_INPUT_KEYS = ("theorem", "p", "mode", "A", "B", "c")
_PROOF_KEYS = tuple(key for key in _CERT_KEYS if key not in _INPUT_KEYS)


@st.composite
def _mutations(draw, keys):
    data = json.loads(json.dumps(draw(st.sampled_from(_VALID))))
    key = draw(st.sampled_from(keys))
    old = data[key]
    if isinstance(old, int) and not isinstance(old, bool):
        new = old + draw(st.integers(-3, 3).filter(bool))
    elif isinstance(old, list) and old and draw(st.booleans()):
        new = list(old)
        edit = draw(st.sampled_from(["drop", "reverse", "append", "bump"]))
        i = draw(st.integers(0, len(new) - 1))
        if edit == "drop":
            del new[i]
        elif edit == "reverse":
            new.reverse()
        elif edit == "append":
            new.append(new[i])
        elif isinstance(new[i], list):
            new[i] = [v + 1 for v in new[i]]
        else:
            new[i] = new[i] + 1
    else:
        new = draw(_json_values)
    assume(json.dumps(new) != json.dumps(old))
    data[key] = new
    return data


@settings(max_examples=300)
@given(_mutations(_PROOF_KEYS))
def test_mutated_proof_fields_are_rejected(data):
    assert _rejected(data)


@settings(max_examples=150)
@given(_mutations(_INPUT_KEYS))
def test_mutated_inputs_never_crash_the_verifier(data):
    # new inputs may well admit a certificate of their own (a different
    # target with no unique representation is again HypothesisUnmet), so
    # the verdict is free here; the verifier must answer cleanly
    try:
        ok, problems = verify_certificate(Certificate.from_json_dict(data))
    except ValueError:
        return
    assert ok == (not problems)
