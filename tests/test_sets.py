import pytest

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
