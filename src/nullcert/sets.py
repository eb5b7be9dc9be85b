"""Finite subsets of GF(p)+ or GF(p)* and the set-level constructions.

An ElementSet carries a group-mode tag: the combine operations form a + b in
additive mode and a * b in multiplicative mode, with the *restricted* variants
dropping every pair with a = b.  Mode or field mismatch is always a hard
error, never a coercion.

Sets keep a sorted tuple of residues (ints).  The search sweeps index
subsets by bitmasks over group indices (`search._Universe`) and build
ElementSets only to replay or attach certificates.
"""

from __future__ import annotations

import enum
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .field import FieldElement, PrimeField


class GroupMode(enum.Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"

    @classmethod
    def parse(cls, text: str) -> "GroupMode":
        aliases = {
            "add": cls.ADDITIVE,
            "additive": cls.ADDITIVE,
            "mult": cls.MULTIPLICATIVE,
            "multiplicative": cls.MULTIPLICATIVE,
        }
        try:
            return aliases[text.lower()]
        except KeyError:
            raise ValueError(f"unknown group mode {text!r}") from None


class ElementSet:
    """A finite subset of the additive or multiplicative group of GF(p).

    Elements are stored sorted by canonical residue and deduplicated.
    Multiplicative-mode sets never contain 0.
    """

    __slots__ = ("field", "mode", "values")

    def __init__(self, field: PrimeField, mode: GroupMode, elements: Iterable):
        p = field.p
        values = sorted({e % p if type(e) is int else int(field.element(e)) for e in elements})
        if mode is GroupMode.MULTIPLICATIVE and values and values[0] == 0:
            raise ValueError("multiplicative-mode sets cannot contain 0")
        self.field = field
        self.mode = mode
        self.values = tuple(values)

    @property
    def elements(self) -> tuple[FieldElement, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return (FieldElement(v, self.field) for v in self.values)

    def __contains__(self, item) -> bool:
        try:
            v = int(self.field.element(item))
        except ValueError:
            return False
        return v in self.values

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.field == other.field
            and self.mode == other.mode
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.mode, self.values))

    def __repr__(self) -> str:
        tag = "+" if self.mode is GroupMode.ADDITIVE else "*"
        return f"{{{', '.join(str(v) for v in self.values)}}}{tag}@GF({self.field.p})"


@dataclass(frozen=True)
class Representation:
    """One way of writing `product` as a o b with a drawn from A, b from B."""

    a: FieldElement
    b: FieldElement
    product: FieldElement


def _require_compatible(A: ElementSet, B: ElementSet) -> None:
    if A.field != B.field:
        raise ValueError(f"field mismatch: {A.field} vs {B.field}")
    if A.mode != B.mode:
        raise ValueError(f"group-mode mismatch: {A.mode.value} vs {B.mode.value}")


def _operation(mode: GroupMode):
    """The group operation on residues, before reduction mod p."""
    return operator.add if mode is GroupMode.ADDITIVE else operator.mul


def group_identity(field: PrimeField, mode: GroupMode) -> FieldElement:
    return field.zero() if mode is GroupMode.ADDITIVE else field.one()


def _combos(A: ElementSet, B: ElementSet, restricted: bool) -> list[tuple[int, int, int]]:
    """(a, b, a o b) for a in A, b in B, with a != b if `restricted`, in
    lexicographic (a, b) order."""
    _require_compatible(A, B)
    p, op = A.field.p, _operation(A.mode)
    return [(a, b, op(a, b) % p)
            for a in A.values for b in B.values if not (restricted and a == b)]


def full_combine(A: ElementSet, B: ElementSet) -> ElementSet:
    """{a o b : a in A, b in B} under the shared group operation."""
    return ElementSet(A.field, A.mode, {g for _, _, g in _combos(A, B, False)})


def restricted_combine(A: ElementSet, B: ElementSet) -> ElementSet:
    """{a o b : a in A, b in B, a != b}."""
    return ElementSet(A.field, A.mode, {g for _, _, g in _combos(A, B, True)})


def representations(
    A: ElementSet, B: ElementSet, c: FieldElement, restricted: bool = False
) -> list[Representation]:
    """All pairs (a, b) with a o b = c, in lexicographic order.

    With `restricted` set, pairs with a = b are excluded.  An empty list is a
    normal outcome, not an error.
    """
    combos = _combos(A, B, restricted)
    c = A.field.element(c)
    return [
        Representation(FieldElement(a, A.field), FieldElement(b, A.field), c)
        for a, b, g in combos
        if g == c.value
    ]


def unique_rep_elements(A: ElementSet, B: ElementSet, restricted: bool = True) -> ElementSet:
    """All c with exactly one representation c = a o b (a != b if restricted)."""
    counts = Counter(g for _, _, g in _combos(A, B, restricted))
    return ElementSet(A.field, A.mode, [c for c, k in counts.items() if k == 1])


def symmetric_pair_elements(A: ElementSet, B: ElementSet) -> ElementSet:
    """All c whose restricted representations are exactly one symmetric pair.

    Selects c with precisely two representations, of the form (a, b) and
    (b, a) with a != b.  This is the hypothesis of the two-representation
    bounds; for A = B any c with exactly two restricted representations
    qualifies automatically.
    """
    pairs: dict[int, list[tuple[int, int]]] = {}
    for a, b, c in _combos(A, B, True):
        pairs.setdefault(c, []).append((a, b))
    selected = [
        c
        for c, ps in pairs.items()
        if len(ps) == 2 and ps[0] == (ps[1][1], ps[1][0])
    ]
    return ElementSet(A.field, A.mode, selected)


def inverse_set(B: ElementSet) -> ElementSet:
    """{b**-1 : b in B}; multiplicative mode only."""
    if B.mode is not GroupMode.MULTIPLICATIVE:
        raise ValueError("inverse_set needs a multiplicative-mode set; use negate_set")
    p = B.field.p
    return ElementSet(B.field, B.mode, [pow(b, -1, p) for b in B.values])


def negate_set(B: ElementSet) -> ElementSet:
    """{-b : b in B}; additive mode only."""
    if B.mode is not GroupMode.ADDITIVE:
        raise ValueError("negate_set needs an additive-mode set; use inverse_set")
    p = B.field.p
    return ElementSet(B.field, B.mode, [(-b) % p for b in B.values])


def dyson_transform(
    A: ElementSet, B: ElementSet, x: FieldElement
) -> tuple[ElementSet, ElementSet]:
    """The pair (A n xB, A u xB) where xB = {x o b : b in B}.

    Preserves |A| + |B|, and the full combine of the transformed pair is
    contained in the full combine of (A, xB).
    """
    _require_compatible(A, B)
    x = A.field.element(x)
    if A.mode is GroupMode.MULTIPLICATIVE and x.value == 0:
        raise ValueError("0 is not a multiplicative group element")
    p, op = A.field.p, _operation(A.mode)
    xB = {op(x.value, b) % p for b in B.values}
    inter = set(A.values) & xB
    union = set(A.values) | xB
    A2 = ElementSet(A.field, A.mode, inter)
    B2 = ElementSet(A.field, A.mode, union)
    if len(A2) + len(B2) != len(A) + len(B):
        raise AssertionError("size sum not preserved; transform invariant broken")
    return A2, B2


def exceptional_square_set(A: ElementSet, B: ElementSet) -> ElementSet:
    """{a in A n B : a*a not in the restricted product set of A and B}.

    Nonempty exactly when the restricted product set is a proper subset of
    the full one.  Multiplicative mode only.
    """
    _require_compatible(A, B)
    if A.mode is not GroupMode.MULTIPLICATIVE:
        raise ValueError("exceptional_square_set is a multiplicative-mode construction")
    p = A.field.p
    products = set(restricted_combine(A, B).values)
    out = [a for a in set(A.values) & set(B.values) if a * a % p not in products]
    return ElementSet(A.field, A.mode, out)
