"""Finite subsets of GF(p)+ or GF(p)* and the set-level constructions.

An ElementSet carries a group-mode tag: the combine operations form a + b in
additive mode and a * b in multiplicative mode, with the *restricted* variants
dropping every pair with a = b.  Mode or field mismatch is always a hard
error, never a coercion.

Sets keep a sorted tuple of residues (ints).  Every construction on a pair
(A, B) reads its *combine table* (`_table`): the |A| x |B| array of a o b
mod p, one `np.add.outer` or `np.multiply.outer` of the two residue tuples
as `field._array`s (the package's one dtype rule: int64 when p < 2**31,
Python-int objects otherwise), with the mask of its pairs a != b.  Read row
by row, the table lists the pairs in lexicographic (a, b) order.  Distinct
values come from one sort and a neighbour compare, multiplicities from the
lengths of the runs, and the representations of c from the cells that hold
c.  Within `_one_table` (each certificate build) the constructions on one
(A, B) read one table.

The search sweeps index subsets by bitmasks over group indices
(`search._Universe`) and build ElementSets only to replay or attach
certificates.
"""

from __future__ import annotations

import contextlib
import enum
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .field import FieldElement, PrimeField, _array


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

    @classmethod
    def _of(cls, field: PrimeField, mode: GroupMode, values: np.ndarray) -> "ElementSet":
        """The set of `values`, residues already sorted, distinct and reduced
        (never 0 in multiplicative mode), without the constructor's pass."""
        out = cls.__new__(cls)
        out.field, out.mode, out.values = field, mode, tuple(values.tolist())
        return out

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


class _Table(NamedTuple):
    """The combine table of (A, B): residues `a` and `b` as arrays, g[i, j] =
    a[i] o b[j] mod p, and `off`, the mask of the cells with a[i] != b[j]."""

    a: np.ndarray
    b: np.ndarray
    g: np.ndarray
    off: np.ndarray


# the tables built so far inside `_one_table`, by (p, mode, A, B); None outside
_shared: dict | None = None


@contextlib.contextmanager
def _one_table():
    """Within the block (or the function it decorates), the constructions on
    one (A, B) read one combine table; the outermost block drops them."""
    global _shared
    if _shared is not None:
        yield
        return
    _shared = {}
    try:
        yield
    finally:
        _shared = None


def _table(A: ElementSet, B: ElementSet) -> _Table:
    """The combine table of (A, B), built once per (A, B) inside `_one_table`."""
    _require_compatible(A, B)
    key = None if _shared is None else (A.field.p, A.mode, A.values, B.values)
    table = None if key is None else _shared.get(key)
    if table is None:
        p = A.field.p
        a, b = _array(A.values, p), _array(B.values, p)
        outer = np.add.outer if A.mode is GroupMode.ADDITIVE else np.multiply.outer
        table = _Table(a, b, outer(a, b) % p, a[:, None] != b)
        if key is not None:
            _shared[key] = table
    return table


def _combined(A: ElementSet, B: ElementSet, restricted: bool) -> np.ndarray:
    """a o b for a in A, b in B, with a != b if `restricted`, in
    lexicographic (a, b) order."""
    table = _table(A, B)
    return table.g[table.off] if restricted else table.g.ravel()


def _edges(values: np.ndarray) -> np.ndarray:
    """The len(values) + 1 run edges of the sorted `values`: edge i is set
    where a run of equal values starts at i or ends before it, so a run of
    length k is an edge, k - 1 clear entries and the next edge."""
    edges = np.ones(len(values) + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=edges[1:-1])
    return edges


def _distinct(A: ElementSet, values: np.ndarray) -> ElementSet:
    """The set of `values` in A's field and mode."""
    values = np.sort(values)
    return ElementSet._of(A.field, A.mode, values[_edges(values)[:-1]])


def full_combine(A: ElementSet, B: ElementSet) -> ElementSet:
    """{a o b : a in A, b in B} under the shared group operation."""
    return _distinct(A, _combined(A, B, False))


def restricted_combine(A: ElementSet, B: ElementSet) -> ElementSet:
    """{a o b : a in A, b in B, a != b}."""
    return _distinct(A, _combined(A, B, True))


def representations(
    A: ElementSet, B: ElementSet, c: FieldElement, restricted: bool = False
) -> list[Representation]:
    """All pairs (a, b) with a o b = c, in lexicographic order.

    With `restricted` set, pairs with a = b are excluded.  An empty list is a
    normal outcome, not an error.
    """
    table = _table(A, B)
    c = A.field.element(c)
    hits = table.g == c.value
    if restricted:
        hits &= table.off
    rows, cols = np.nonzero(hits)
    field = A.field
    return [
        Representation(FieldElement(A.values[i], field), FieldElement(B.values[j], field), c)
        for i, j in zip(rows.tolist(), cols.tolist())
    ]


def unique_rep_elements(A: ElementSet, B: ElementSet, restricted: bool = True) -> ElementSet:
    """All c with exactly one representation c = a o b (a != b if restricted)."""
    values = np.sort(_combined(A, B, restricted))
    edges = _edges(values)
    return ElementSet._of(A.field, A.mode, values[edges[:-1] & edges[1:]])


def symmetric_pair_elements(A: ElementSet, B: ElementSet) -> ElementSet:
    """All c whose restricted representations are exactly one symmetric pair.

    Selects c with precisely two representations, of the form (a, b) and
    (b, a) with a != b.  This is the hypothesis of the two-representation
    bounds; for A = B any c with exactly two restricted representations
    qualifies automatically.
    """
    table = _table(A, B)
    rows, cols = np.nonzero(table.off)
    kept = table.g[table.off]
    order = np.argsort(kept, kind="stable")  # each run of one c in (a, b) order
    values = kept[order]
    edges = _edges(values)
    two = np.flatnonzero(edges[:-2] & ~edges[1:-1] & edges[2:])  # the runs of length 2
    first, second = order[two], order[two + 1]
    # (a, b) then (a', b') with a o b = a' o b': b = a' forces a = b'
    mirrored = table.b[cols[first]] == table.a[rows[second]]
    return ElementSet._of(A.field, A.mode, values[two[mirrored]])


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
    table = _table(A, B)
    products = np.sort(table.g[table.off])
    # the cells off the mask are the (a, a), a in A n B, ascending; they hold a*a
    squares = table.g[~table.off]
    ends = np.append(products, A.field.p)  # p: a sentinel past every residue
    missing = ends[np.searchsorted(ends, squares)] != squares
    return ElementSet._of(A.field, A.mode, table.a[np.nonzero(~table.off)[0][missing]])
