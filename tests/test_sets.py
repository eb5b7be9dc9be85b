from unittest import mock

import pytest
from hypothesis import given, strategies as st

from nullcert import field as field_module
from nullcert.field import PrimeField
from nullcert.sets import (
    ElementSet,
    GroupMode,
    dyson_transform,
    exceptional_square_set,
    full_combine,
    group_identity,
    inverse_set,
    negate_set,
    representations,
    restricted_combine,
    symmetric_pair_elements,
    unique_rep_elements,
)

from conftest import (
    combine_oracle,
    exceptional_square_oracle,
    nonempty_subsets,
    rep_count_oracle,
    rep_pairs_oracle,
)

ADD = GroupMode.ADDITIVE
MULT = GroupMode.MULTIPLICATIVE


def mk(p, mode, values):
    return ElementSet(PrimeField(p), mode, values)


def test_constructor_normalizes():
    s = mk(7, ADD, [5, 1, 5, 3])
    assert s.values == (1, 3, 5)
    assert len(s) == 3
    assert 3 in s and 2 not in s


def test_constructor_coerces_only_ints_and_own_elements():
    # an exact int is reduced; a bool or an element of the field goes through
    # `field.element`, and anything else is refused there
    f7 = PrimeField(7)
    assert ElementSet(f7, ADD, [-1, 15, True, f7.element(3), 10**30]).values == (1, 3, 6)
    for item in (PrimeField(5).element(3), "3", 2.7, None):
        with pytest.raises(ValueError, match="is not"):
            ElementSet(f7, ADD, [1, item])
    with pytest.raises(ValueError):
        ElementSet(f7, MULT, [14])


def test_views_hash_and_repr():
    f7 = PrimeField(7)
    s = mk(7, MULT, [3, 1, 6])
    assert s.elements == (f7.element(1), f7.element(3), f7.element(6))
    assert [(e.value, e.field) for e in s] == [(1, f7), (3, f7), (6, f7)]
    assert hash(s) == hash(mk(7, MULT, [6, 3, 1, 10])) == hash((7, MULT, (1, 3, 6)))
    assert repr(s) == "{1, 3, 6}*@GF(7)"
    assert repr(mk(5, ADD, [2, 0])) == "{0, 2}+@GF(5)"
    # an element of another field is no member, though its residue is
    assert 3 in s and PrimeField(5).element(3) not in s


def test_group_identity():
    f7 = PrimeField(7)
    assert group_identity(f7, ADD) == f7.zero() and group_identity(f7, ADD).value == 0
    assert group_identity(f7, MULT) == f7.one() and group_identity(f7, MULT).value == 1


def test_multiplicative_rejects_zero():
    with pytest.raises(ValueError):
        mk(7, MULT, [0, 1])


def test_restricted_combine_examples():
    assert restricted_combine(mk(7, MULT, [1, 2]), mk(7, MULT, [2, 3])).values == (2, 3, 6)
    assert restricted_combine(mk(7, ADD, [0, 1]), mk(7, ADD, [1, 2])).values == (1, 2, 3)
    assert restricted_combine(mk(5, MULT, [3]), mk(5, MULT, [3])).values == ()


def test_full_combine_examples():
    assert full_combine(mk(7, MULT, [1, 2]), mk(7, MULT, [2, 3])).values == (2, 3, 4, 6)
    assert full_combine(mk(7, MULT, [2]), mk(7, MULT, [3])).values == (6,)
    assert full_combine(mk(5, ADD, [0, 1, 2]), mk(5, ADD, [0, 1, 2])).values == (0, 1, 2, 3, 4)


def test_mode_and_field_mismatch():
    with pytest.raises(ValueError):
        full_combine(mk(7, ADD, [1]), mk(7, MULT, [1]))
    with pytest.raises(ValueError):
        full_combine(mk(7, ADD, [1]), mk(5, ADD, [1]))
    with pytest.raises(ValueError, match="unknown group mode 'ring'"):
        GroupMode.parse("ring")


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("mode,tag", [(ADD, "add"), (MULT, "mult")])
def test_combines_match_enumeration_oracle(p, mode, tag):
    field = PrimeField(p)
    universe = range(p) if mode is ADD else range(1, p)
    subsets = nonempty_subsets(universe)
    for A_vals in subsets:
        A = ElementSet(field, mode, A_vals)
        for B_vals in subsets:
            B = ElementSet(field, mode, B_vals)
            assert set(restricted_combine(A, B).values) == combine_oracle(
                tag, p, A_vals, B_vals, restricted=True
            )
            assert set(full_combine(A, B).values) == combine_oracle(
                tag, p, A_vals, B_vals, restricted=False
            )


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("mode,tag", [(ADD, "add"), (MULT, "mult")])
def test_restricted_full_difference_characterization(p, mode, tag):
    # the missing elements are exactly the diagonal products with no
    # off-diagonal representation
    field = PrimeField(p)
    universe = range(p) if mode is ADD else range(1, p)
    op = (lambda a, b: (a + b) % p) if mode is ADD else (lambda a, b: a * b % p)
    for A_vals in nonempty_subsets(universe):
        A = ElementSet(field, mode, A_vals)
        for B_vals in nonempty_subsets(universe):
            B = ElementSet(field, mode, B_vals)
            restricted = set(restricted_combine(A, B).values)
            full = set(full_combine(A, B).values)
            assert restricted <= full
            expected_gap = {
                op(a, a)
                for a in set(A_vals) & set(B_vals)
                if op(a, a) not in restricted
            }
            assert full - restricted == expected_gap


def test_representations_examples():
    A = mk(5, MULT, [1, 2, 3, 4])
    B = mk(5, MULT, [1, 2, 4])
    one = PrimeField(5).one()
    restricted = representations(A, B, one, restricted=True)
    assert [(r.a.value, r.b.value) for r in restricted] == [(3, 2)]
    unrestricted = representations(A, B, one, restricted=False)
    assert [(r.a.value, r.b.value) for r in unrestricted] == [(1, 1), (3, 2), (4, 4)]
    # target outside the full combine
    assert representations(mk(5, MULT, [1, 2]), mk(5, MULT, [1, 2]), 3) == []


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("mode,tag", [(ADD, "add"), (MULT, "mult")])
def test_representation_count_sums(p, mode, tag):
    field = PrimeField(p)
    universe = range(p) if mode is ADD else range(1, p)
    subsets = nonempty_subsets(universe)
    for A_vals in subsets:
        A = ElementSet(field, mode, A_vals)
        for B_vals in subsets:
            B = ElementSet(field, mode, B_vals)
            full_counts = rep_count_oracle(tag, p, A_vals, B_vals, restricted=False)
            restricted_counts = rep_count_oracle(tag, p, A_vals, B_vals, restricted=True)
            assert sum(full_counts.values()) == len(A_vals) * len(B_vals)
            assert sum(restricted_counts.values()) == len(A_vals) * len(B_vals) - len(
                set(A_vals) & set(B_vals)
            )
            for c, count in full_counts.items():
                got = representations(A, B, field.element(c))
                assert len(got) == count
                assert [(r.a.value, r.b.value) for r in got] == rep_pairs_oracle(
                    tag, p, A_vals, B_vals, c, restricted=False
                )


def test_unique_rep_elements_examples():
    assert unique_rep_elements(mk(7, MULT, [1, 2]), mk(7, MULT, [2, 3])).values == (2, 3, 6)
    assert unique_rep_elements(mk(7, MULT, [2]), mk(7, MULT, [5])).values == (3,)


def test_symmetric_pair_selector():
    # A = GF(5)*: c = 1 has reps (2,3),(3,2); c = 4 has (1,4),(4,1).
    # c = 2 has four restricted reps ((1,2),(2,1),(3,4),(4,3)), so it is out.
    A = mk(5, MULT, [1, 2, 3, 4])
    assert symmetric_pair_elements(A, A).values == (1, 4)
    counts = rep_count_oracle("mult", 5, [1, 2, 3, 4], [1, 2, 3, 4], restricted=True)
    assert counts[2] == 4 and counts[1] == 2 and counts[4] == 2
    # 3*4 = 2 mod 5: the symmetric pair the selector must not be fooled by
    assert (3 * 4) % 5 == 2


@pytest.mark.parametrize("p", [5, 7, 11])
def test_symmetric_pair_selector_matches_oracle(p):
    field = PrimeField(p)
    for A_vals in nonempty_subsets(range(1, p)):
        if len(A_vals) > 4:
            continue
        A = ElementSet(field, MULT, A_vals)
        got = set(symmetric_pair_elements(A, A).values)
        counts = rep_count_oracle("mult", p, A_vals, A_vals, restricted=True)
        assert got == {c for c, k in counts.items() if k == 2}


def test_inverse_and_negate_set():
    assert inverse_set(mk(7, MULT, [1, 2, 4])).values == (1, 2, 4)
    assert inverse_set(mk(7, MULT, [1])).values == (1,)
    assert inverse_set(mk(5, MULT, [2, 3])).values == (2, 3)
    assert negate_set(mk(5, ADD, [1, 2])).values == (3, 4)
    with pytest.raises(ValueError):
        inverse_set(mk(7, ADD, [1, 2]))
    with pytest.raises(ValueError):
        negate_set(mk(7, MULT, [1, 2]))


def test_dyson_transform_examples():
    A = mk(7, MULT, [1, 2])
    B = mk(7, MULT, [1, 3])
    A2, B2 = dyson_transform(A, B, PrimeField(7).element(2))
    assert A2.values == (2,) and B2.values == (1, 2, 6)
    # identity translate with B inside A swaps the roles
    A = mk(5, ADD, [0, 1, 2])
    B = mk(5, ADD, [1, 2])
    A2, B2 = dyson_transform(A, B, PrimeField(5).zero())
    assert A2.values == B.values and B2.values == A.values
    # disjoint translate empties the intersection
    A = mk(7, MULT, [1])
    B = mk(7, MULT, [1])
    A2, B2 = dyson_transform(A, B, PrimeField(7).element(3))
    assert A2.values == () and B2.values == (1, 3)
    assert len(A2) + len(B2) == len(A) + len(B)
    with pytest.raises(ValueError):
        dyson_transform(mk(7, MULT, [1]), mk(7, MULT, [1]), PrimeField(7).zero())


def test_dyson_invariants_exhaustive_p5():
    field = PrimeField(5)
    for mode, universe in ((ADD, range(5)), (MULT, range(1, 5))):
        subsets = nonempty_subsets(universe)
        for A_vals in subsets:
            A = ElementSet(field, mode, A_vals)
            for B_vals in subsets:
                B = ElementSet(field, mode, B_vals)
                for x in universe:
                    A2, B2 = dyson_transform(A, B, field.element(x))
                    assert len(A2) + len(B2) == len(A) + len(B)
                    if len(A2) == 0:
                        continue
                    xB = ElementSet(
                        field,
                        mode,
                        [
                            (x + b) % 5 if mode is ADD else x * b % 5
                            for b in B_vals
                        ],
                    )
                    lhs = full_combine(A2, B2)
                    rhs = full_combine(A, xB)
                    assert set(lhs.values) <= set(rhs.values)


def test_exceptional_square_set_examples():
    assert exceptional_square_set(mk(7, MULT, [1, 2]), mk(7, MULT, [1, 2])).values == (1, 2)
    assert exceptional_square_set(mk(7, MULT, [1, 2, 4]), mk(7, MULT, [1, 2, 4])).values == ()
    assert exceptional_square_set(mk(7, MULT, [1]), mk(7, MULT, [2])).values == ()
    with pytest.raises(ValueError):
        exceptional_square_set(mk(7, ADD, [1]), mk(7, ADD, [2]))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exceptional_set_detects_proper_containment(p):
    field = PrimeField(p)
    subsets = nonempty_subsets(range(1, p))
    for A_vals in subsets:
        A = ElementSet(field, MULT, A_vals)
        for B_vals in subsets:
            B = ElementSet(field, MULT, B_vals)
            n_set = exceptional_square_set(A, B)
            assert set(n_set.values) == exceptional_square_oracle(p, A_vals, B_vals)
            proper = set(restricted_combine(A, B).values) != set(
                full_combine(A, B).values
            )
            assert (len(n_set) > 0) == proper


# the set layer's oracle: the plain double loop over A x B, in lexicographic
# (a, b) order.  2**31 - 1 and 2**31 + 11 sit on either side of the combine
# table's int64 limit; the larger primes run it on Python-int objects, and
# past 2**32 - 5 an int64 product of two residues would wrap.
_TABLE_PRIMES = (2, 3, 5, 257, (1 << 31) - 1, (1 << 31) + 11, (1 << 32) - 5, (1 << 89) - 1)


def _combos(mode, p, A, B, restricted):
    op = (lambda a, b: (a + b) % p) if mode is ADD else (lambda a, b: a * b % p)
    return [(a, b, op(a, b)) for a in A for b in B if not (restricted and a == b)]


@st.composite
def _set_pairs(draw):
    p, mode = draw(st.sampled_from(_TABLE_PRIMES)), draw(st.sampled_from([ADD, MULT]))
    low = 0 if mode is ADD else 1
    # a few residues, some that collide under + or * (1, -1, 2, 1/2, -2), so
    # that repeated values, symmetric pairs and missing squares come up
    special = [v % p for v in (0, 1, p - 1, 2, (p + 1) // 2, p - 2) if low <= v % p]
    pool = draw(st.lists(st.sampled_from(special) | st.integers(low, p - 1), max_size=8))
    A = sorted(set(draw(st.lists(st.sampled_from(pool), max_size=6)) if pool else []))
    same = draw(st.booleans())
    B = A if same else sorted(set(draw(st.lists(st.sampled_from(pool), max_size=6)) if pool else []))
    return p, mode, A, B


@given(_set_pairs(), st.integers())
def test_every_construction_matches_the_double_loop(case, extra):
    p, mode, A_vals, B_vals = case
    with mock.patch.object(field_module, "is_prime", lambda n: n in _TABLE_PRIMES):
        field = PrimeField(p)
    A, B = ElementSet(field, mode, A_vals), ElementSet(field, mode, B_vals)
    out = []
    for restricted in (False, True):
        combos = _combos(mode, p, A_vals, B_vals, restricted)
        counts = {}
        for _, _, g in combos:
            counts[g] = counts.get(g, 0) + 1
        combine = restricted_combine(A, B) if restricted else full_combine(A, B)
        assert combine.values == tuple(sorted(counts))
        unique = unique_rep_elements(A, B, restricted=restricted)
        assert unique.values == tuple(sorted(g for g, k in counts.items() if k == 1))
        for c in [*counts, extra]:
            reps = representations(A, B, c, restricted=restricted)
            assert [(r.a.value, r.b.value) for r in reps] == [(a, b) for a, b, g in combos if g == c % p]
            assert all(r.product == field.element(c) for r in reps)
            out += [r.a.value for r in reps] + [r.b.value for r in reps]
        out += combine.values + unique.values
    pairs = {}
    for a, b, g in _combos(mode, p, A_vals, B_vals, True):
        pairs.setdefault(g, []).append((a, b))
    symmetric = symmetric_pair_elements(A, B)
    assert symmetric.values == tuple(sorted(
        g for g, ps in pairs.items() if len(ps) == 2 and ps[0] == ps[1][::-1]))
    out += symmetric.values
    if mode is MULT:
        squares = exceptional_square_set(A, B)
        assert squares.values == tuple(a for a in A_vals if a in B_vals and a * a % p not in pairs)
        out += squares.values
    else:
        with pytest.raises(ValueError, match="multiplicative-mode construction"):
            exceptional_square_set(A, B)
    # no numpy scalar escapes the table
    assert all(type(v) is int for v in out)


@pytest.mark.parametrize("p", [(1 << 31) - 1, (1 << 31) + 11, (1 << 32) - 5, (1 << 89) - 1])
def test_combine_table_is_exact_at_the_largest_residues(p):
    # (p - 1)**2 is the largest product the table forms: just below 2**62 at
    # p = 2**31 - 1, past 2**64 at p = 2**32 - 5, where only objects hold it
    with mock.patch.object(field_module, "is_prime", lambda n: n == p):
        field = PrimeField(p)
    top = [p - 2, p - 1]
    A = ElementSet(field, MULT, top)
    assert full_combine(A, A).values == (1, 2, 4)
    assert restricted_combine(A, A).values == symmetric_pair_elements(A, A).values == (2,)
    assert [(r.a.value, r.b.value) for r in representations(A, A, 1)] == [(p - 1, p - 1)]
    assert exceptional_square_set(A, A).values == tuple(top)
    assert full_combine(ElementSet(field, ADD, top), ElementSet(field, ADD, top)).values == (p - 4, p - 3, p - 2)
