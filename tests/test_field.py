from collections import OrderedDict
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nullcert.field import (
    FieldElement,
    PrimeField,
    divisors,
    element_order,
    find_prime_with_subgroup,
    is_prime,
    json_text,
    primitive_root_of_unity,
    smallest_generator,
)

from conftest import inverse_oracle, order_oracle


def test_basic_arithmetic():
    f5 = PrimeField(5)
    f7 = PrimeField(7)
    assert (f5.element(3) + f5.element(4)).value == 2
    assert (f7.element(3) * f7.element(5)).value == 1
    assert (-f5.element(2)).value == 3
    assert (f5.element(1) - f5.element(3)).value == 3


def test_inverse_examples():
    assert PrimeField(7).element(2).inverse().value == 4
    assert PrimeField(5).element(1).inverse().value == 1
    assert PrimeField(13).element(5).inverse().value == inverse_oracle(5, 13) == 8


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_inverse_matches_extended_euclid(p):
    f = PrimeField(p)
    for v in range(1, p):
        assert f.element(v).inverse().value == inverse_oracle(v, p)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).zero().inverse()
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).zero() ** -1


def test_field_mismatch_rejected():
    a = PrimeField(5).element(2)
    b = PrimeField(7).element(2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        PrimeField(5).element(b)


def test_element_rejects_non_integers():
    f = PrimeField(7)
    assert f.element(np.int64(9)).value == 2
    assert f.element(-1).value == 6
    for value in (None, 2.0, "3", [1]):
        with pytest.raises(ValueError, match="not an integer"):
            f.element(value)


def test_order_examples():
    assert element_order(PrimeField(5).element(2)) == order_oracle(2, 5) == 4
    assert element_order(PrimeField(7).element(6)) == order_oracle(6, 7) == 2
    for p in (3, 5, 7, 11):
        assert element_order(PrimeField(p).one()) == 1
    with pytest.raises(ValueError):
        element_order(PrimeField(5).zero())


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_order_divides_group_order(p):
    f = PrimeField(p)
    for x in f.units():
        k = element_order(x)
        assert k == order_oracle(x.value, p)
        assert (p - 1) % k == 0


def test_find_prime_with_subgroup():
    assert find_prime_with_subgroup(4).p == 5
    assert find_prime_with_subgroup(6).p == 7
    assert find_prime_with_subgroup(1).p == 3
    assert find_prime_with_subgroup(1, start=10).p == 11
    assert find_prime_with_subgroup(10).p == 11
    with pytest.raises(ValueError):
        find_prime_with_subgroup(0)
    with pytest.raises(ValueError, match="no prime"):
        find_prime_with_subgroup(6, start=(1 << 20) - 1)  # no candidate below the cap


def test_primitive_root_examples():
    assert primitive_root_of_unity(PrimeField(5), 4).value == 2
    assert primitive_root_of_unity(PrimeField(7), 2).value == 6
    assert primitive_root_of_unity(PrimeField(5), 1).value == 1
    with pytest.raises(ValueError):
        primitive_root_of_unity(PrimeField(7), 4)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_primitive_root_properties(p):
    f = PrimeField(p)
    for d in divisors(p - 1):
        w = primitive_root_of_unity(f, d)
        assert order_oracle(w.value, p) == d
        # smallest residue with that exact order
        for v in range(1, w.value):
            assert order_oracle(v, p) != d
        # powers at proper divisors never hit 1
        for k in divisors(d)[:-1]:
            assert pow(w.value, k, p) != 1 or d == 1
    g = smallest_generator(f)
    assert order_oracle(g.value, p) == p - 1


def test_primality_validation():
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(1_048_583)  # above the trial-division cap
    assert PrimeField(2).p == 2
    assert is_prime(65521)


def test_is_prime_matches_a_sieve():
    n = 1 << 16
    sieve = [False, False] + [True] * (n - 2)
    for d in range(2, 256):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, n, d))
    assert [is_prime(k) for k in range(n)] == sieve
    # the cap edge: 2^20 - 3 is prime, 2^20 - 1 = 3 * 5^2 * 11 * 31 * 41
    assert is_prime(1_048_573) and not is_prime(1_048_575)
    with pytest.raises(ValueError, match=r"^1048583 exceeds the primality-test cap 1048576$"):
        is_prime(1_048_583)


def test_field_axioms_exhaustive_small():
    f = PrimeField(5)
    elems = list(f.elements())
    for x in elems:
        for y in elems:
            assert (x + y).value == (y + x).value
            assert (x * y).value == (y * x).value
            for z in elems:
                assert ((x + y) + z).value == (x + (y + z)).value
                assert ((x * y) * z).value == (x * (y * z)).value
                assert (x * (y + z)).value == (x * y + x * z).value
    for x in elems[1:]:
        assert (x * x.inverse()).value == 1


def test_field_axioms_random_large():
    f = PrimeField(65521)
    rng = random.Random(7)
    for _ in range(300):
        x, y, z = (f.element(rng.randrange(65521)) for _ in range(3))
        assert ((x + y) + z) == (x + (y + z))
        assert (x * (y + z)) == (x * y + x * z)
        if x.value:
            assert (x * x.inverse()).value == 1
            assert (x ** -1) == x.inverse()


def test_pow_and_repr():
    f = PrimeField(7)
    assert (f.element(3) ** 0).value == 1
    assert (f.element(3) ** 6).value == 1
    assert (f.element(3) ** -2) == (f.element(3) ** 2).inverse()
    assert repr(f) == "GF(7)"
    assert int(f.element(4)) == 4
    assert f.element(4) == 11  # int comparison mod p
    assert repr(f.element(-1)) == "6" and repr(f.element(0)) == "0"


def test_hashes_follow_equality():
    f7 = PrimeField(7)
    assert hash(f7) == hash(PrimeField(7)) == hash(("PrimeField", 7))
    assert hash(f7.element(10)) == hash(f7.element(3)) == hash((7, 3))
    assert len({f7, PrimeField(7), PrimeField(11)}) == 2
    assert len({f7.element(3), f7.element(10), PrimeField(11).element(3)}) == 2


@st.composite
def _operands(draw):
    """(field, x, other, exponent): x an element, other an element or an int."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 101, 65521]))
    field = PrimeField(p)
    x = field.element(draw(st.integers(0, p - 1)))
    other = draw(st.one_of(st.integers(0, p - 1).map(field.element), st.integers(-3 * p, 3 * p)))
    return field, x, other, draw(st.integers(-5, 20))


@given(_operands())
def test_element_arithmetic_matches_integers_mod_p(operands):
    field, x, other, exponent = operands
    p, a, b = field.p, x.value, int(other)

    def value(result):
        assert isinstance(result, FieldElement) and result.field == field
        return result.value

    assert value(x + other) == value(other + x) == (a + b) % p
    assert value(x - other) == (a - b) % p
    assert value(other - x) == (b - a) % p
    assert value(x * other) == value(other * x) == a * b % p
    assert value(-x) == -a % p
    if b % p:
        assert value(x / other) == a * pow(b, -1, p) % p
    else:
        with pytest.raises(ZeroDivisionError):
            x / other
    if a or exponent >= 0:
        assert value(x ** exponent) == pow(a, exponent, p)
    else:
        with pytest.raises(ZeroDivisionError):
            x ** exponent
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        field.zero() ** -1


# ------------------------------------------------------------ JSON writer

_KEYS = st.text(st.sampled_from('aZ\u00e9\u4e2d\U0001f600"\\/\x00\x1f\x7f\n\t') | st.characters(), max_size=6)
_INTS = st.integers(-(1 << 70), 1 << 70) | st.sampled_from([-1, 0, (1 << 64) + 1, -(1 << 64) - 1])
_SCALARS = st.none() | st.booleans() | st.floats() | _KEYS | _INTS
# int lists take the writer's one-join path unless a bool or None sits inside
_INT_LISTS = st.lists(_INTS | st.sampled_from([True, False, None]), max_size=6)
# a column of int lists takes one join per list unless one of them is empty or
# holds a bool or None; a tuple is written as a list
_INT_COLUMNS = st.lists(_INT_LISTS | st.tuples(_INTS, _INTS) | st.tuples(_INTS, st.sampled_from([True, None])),
                        min_size=1, max_size=5)


@st.composite
def _records(draw, values):
    """A list of dicts that share one key set, `%` and `%s` keys among them,
    in which one record may get an extra key or lose one."""
    keys = draw(st.sets(_KEYS | st.sampled_from(["%", "%s", "a%sb", "%(A)s", "%%"]), max_size=4))
    records = draw(st.lists(st.fixed_dictionaries(dict.fromkeys(keys, values)), min_size=1, max_size=4))
    odd = records[draw(st.integers(0, len(records) - 1))]
    change = draw(st.sampled_from(["none", "extra", "missing"]))
    if change == "extra":
        odd[draw(_KEYS)] = draw(values)
    elif change == "missing" and odd:
        del odd[draw(st.sampled_from(sorted(odd)))]
    return records


_VALUES = st.recursive(
    _SCALARS | _INT_LISTS | _INT_COLUMNS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner) | st.dictionaries(_KEYS, inner, max_size=4)
                   | _records(inner)),
    max_leaves=30,
)


@settings(max_examples=300)
@given(_VALUES)
@example({"a": [[{"b": {}}, []], ()], "\x00": [1, [], {"c": [{"d": [[[]]]}]}]})
@example([float("nan"), float("inf"), -0.0, [True, 1, None], (2, -3)])
@example(({}, {}))
@example([{"A": [1, 2], "%s": 3}, {"A": [4], "%s": 5, "x": 6}])
@example([{"A": [1, 2], "b%": 3}, {"A": [4]}])
@example([{"%": {"%s": [1]}, "c": [[2, 3], [4]]}, {"%": {"%s": [5, 6]}, "c": [[7]]}])
@example([{"a": 1}, {"b": 2}])
@example([[1, 2], [], (3, 4)])
@example([[1, 2], (3, True)])
@example([[None, 1], [1 << 65, -(1 << 64) - 1]])
@example([OrderedDict(b=1, a=[2]), {"a": [3], "b": 4}, OrderedDict()])
def test_json_text_is_the_stdlib_indented_form(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"
