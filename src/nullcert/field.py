"""Prime-field arithmetic and root-of-unity machinery.

Everything here works with canonical residues in [0, p).  Moduli are
deliberately small (trial-division primality, capped at 2**20), so clarity
wins over clever reduction tricks.  All values are immutable and every
operation is pure.

`json_text` writes the package's JSON files (reports, certificates, tight
examples) by column, one template per list of records and one join per list
of ints, and `_array` holds the one dtype rule of the package's exact array
kernels (`sets`' combine table, `poly`'s grids, `certify`'s cover check):
int64 when p < 2**31, so that a product of two residues stays below 2**62
and no sum or difference the kernels form can wrap; an object array of
Python ints otherwise.  Both dtypes run the same statements, and both are
exact.  Both live here, in the module every other one imports.
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii
import operator

import numpy as np

PRIMALITY_CAP = 1 << 20


def _array(values, p: int) -> np.ndarray:
    """`values` (reduced residues, nested lists for a matrix) as an exact array."""
    return np.array(values, dtype=np.int64 if p < 1 << 31 else object)


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test for n <= `PRIMALITY_CAP`."""
    if n > PRIMALITY_CAP:
        raise ValueError(f"{n} exceeds the primality-test cap {PRIMALITY_CAP}")
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: multiplicity} by trial division."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    divs = [1]
    for q, mult in factorize(n).items():
        divs = [d * q**e for d in divs for e in range(mult + 1)]
    return sorted(divs)


class PrimeField:
    """The field GF(p) of residues modulo a prime p >= 2."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def element(self, value) -> "FieldElement":
        """Coerce an int (reduced mod p) or an element of this field; any
        other value, None included, raises ValueError."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError(f"element of {value.field} is not in {self}")
            return value
        try:
            residue = operator.index(value) % self.p
        except TypeError:
            raise ValueError(f"{value!r} is not an integer or an element of {self}") from None
        return FieldElement(residue, self)

    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    def one(self) -> "FieldElement":
        return FieldElement(1 % self.p, self)

    def elements(self):
        """All field elements, in residue order."""
        for v in range(self.p):
            yield FieldElement(v, self)

    def units(self):
        """All nonzero elements, in residue order."""
        for v in range(1, self.p):
            yield FieldElement(v, self)


class FieldElement:
    """A residue in [0, p) tied to its PrimeField.

    Arithmetic between elements of different fields is rejected rather than
    coerced.
    """

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        if not 0 <= value < field.p:
            raise ValueError(f"residue {value} out of range for {field}")
        self.value = value
        self.field = field

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError(
                    f"field mismatch: {self.field} vs {other.field}"
                )
            return other
        if isinstance(other, int):
            return FieldElement(other % self.field.p, self.field)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement((self.value + other.value) % self.field.p, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement((self.value - other.value) % self.field.p, self.field)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement((self.value * other.value) % self.field.p, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement((-self.value) % self.field.p, self.field)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0 and self.value == 0:
            raise ZeroDivisionError("negative power of 0")
        return FieldElement(pow(self.value, exponent, self.field.p), self.field)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; rejects 0."""
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.field}")
        return FieldElement(pow(self.value, -1, self.field.p), self.field)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.value == other.value and self.field == other.field
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.value))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value}"


def element_order(x: FieldElement) -> int:
    """Smallest k >= 1 with x**k = 1; divides p - 1.  Rejects x = 0."""
    if x.value == 0:
        raise ValueError("0 has no multiplicative order")
    p = x.field.p
    for d in divisors(p - 1):
        if pow(x.value, d, p) == 1:
            return d
    raise AssertionError("order search failed; field invariant broken")


def find_prime_with_subgroup(d: int, start: int = 3) -> PrimeField:
    """Smallest prime p >= max(start, 3) with p = 1 (mod d).

    Such a field carries a cyclic multiplicative subgroup of order d.
    Raises if the search passes `PRIMALITY_CAP`.
    """
    if d < 1:
        raise ValueError("subgroup order must be >= 1")
    p = max(start, 3)
    while p <= PRIMALITY_CAP:
        if p % d == 1 % d and is_prime(p):
            return PrimeField(p)
        p += 1
    raise ValueError(f"no prime = 1 (mod {d}) found in [{start}, {PRIMALITY_CAP}]")


def primitive_root_of_unity(field: PrimeField, d: int) -> FieldElement:
    """The smallest residue whose multiplicative order is exactly d.

    Requires d | p - 1.  The smallest-residue tie-break keeps every
    construction built on top of this reproducible bit for bit.
    """
    p = field.p
    if d < 1 or (p - 1) % d != 0:
        raise ValueError(f"{d} does not divide {p - 1} = |GF({p})*|")
    prime_divs = list(factorize(d))
    for v in range(1, p):
        if pow(v, d, p) != 1:
            continue
        if all(pow(v, d // q, p) != 1 for q in prime_divs):
            return FieldElement(v, field)
    raise AssertionError(f"no element of order {d} in {field}; invariant broken")


def smallest_generator(field: PrimeField) -> FieldElement:
    """Smallest primitive root of GF(p)* (generator of the full unit group)."""
    return primitive_root_of_unity(field, field.p - 1)


def json_text(value) -> str:
    """`json.dumps(value, sort_keys=True, indent=2) + "\n"`, byte for byte,
    without the stdlib's pure-Python indenting encoder: each list is written
    by column (`_texts`), with type tests at C speed.  Plain ints (`type is
    int`; a bool is written `true`) take one `str` map, non-empty lists of
    them one join each, and dicts that share one non-empty key set one
    template, filled from one column per sorted key; anything else goes value
    by value, a dict as a list of one.  Dict keys must be strings."""
    return _json_text(value, "\n") + "\n"


def _json_text(value, newline: str) -> str:
    if type(value) is int:
        return str(value)
    if not value or not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    if isinstance(value, dict):
        return _texts([value], newline)[0]
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(_texts(value, inner))}{newline}]"


def _texts(values, newline: str) -> list[str]:
    """Each of `values`, a non-empty list, as text at the indent of `newline`."""
    types = set(map(type, values))
    if types == {int}:
        return list(map(str, values))
    inner = newline + "  "
    keys = values[0].keys() if all(issubclass(t, dict) for t in types) else None
    if keys and all(map(keys.__eq__, map(dict.keys, values))):
        keys = sorted(keys)
        fields = (encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys)
        template = "{" + inner + ("," + inner).join(fields) + newline + "}"
        columns = [_texts(list(map(operator.itemgetter(key), values)), inner) for key in keys]
        return [template % row for row in zip(*columns)]
    if types <= {list, tuple} and all(values) and set(map(type, itertools.chain.from_iterable(values))) == {int}:
        text = {v: str(v) for v in set(itertools.chain.from_iterable(values))}.__getitem__
        head, sep, tail = "[" + inner, "," + inner, newline + "]"
        return [f"{head}{sep.join(map(text, v))}{tail}" for v in values]
    return [_json_text(v, newline) for v in values]
