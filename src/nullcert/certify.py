"""Machine-checkable certificates for the restricted product-set bounds.

Each constructor replays one cover argument: it lays down an explicit list of
linear factors (plus, in multiplicative settings, the hyperbola factor
x*y - 1) whose product vanishes on a grid except at designated points, checks
that profile on the whole grid by solving for each factor's zeros (exact:
GF(p) has no zero divisors), and records the degree count's inequality.
Certificates embed all of their inputs, so a written-out certificate can be
re-verified from the JSON file alone.

Verdicts:

* ``BoundCertified``   -- the cover was built, checked, and the bound holds.
* ``DirectlySatisfied`` -- the claimed inequality holds numerically, no
  construction needed (the two-representation certificate).
* ``HypothesisUnmet``  -- the inputs do not meet the hypothesis; a normal
  outcome for sweeps, never an exception.

A violated bound on hypothesis-satisfying inputs is impossible for correct
arithmetic; `_covered`, every builder's last step, raises it as a
:class:`TheoremContradictionError` with the certificate as payload, so sweeps
can count (and must count zero) occurrences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

from .field import FieldElement, PrimeField, json_text
from .poly import difference_product
from .sets import (
    ElementSet,
    GroupMode,
    exceptional_square_set,
    inverse_set,
    representations,
    restricted_combine,
)

BOUND_CERTIFIED = "BoundCertified"
DIRECTLY_SATISFIED = "DirectlySatisfied"
HYPOTHESIS_UNMET = "HypothesisUnmet"


@dataclass(frozen=True)
class Certificate:
    """A replayed proof: inputs, factor list, exceptional points, verdict."""

    theorem: str
    p: int
    mode: str
    A: tuple[int, ...]
    B: tuple[int, ...]
    c: int | None
    lines: tuple[tuple[int, int, int], ...] = ()
    exceptional: tuple[tuple[int, int], ...] = ()
    degree: int | None = None
    top_coefficient: int | None = None
    summands: tuple[int, int] | None = None
    verdict: str = HYPOTHESIS_UNMET
    tight: bool = False

    def to_json_dict(self) -> dict:
        if len(self.exceptional) == 0:
            exceptional = None
        elif len(self.exceptional) == 1:
            exceptional = list(self.exceptional[0])
        else:
            exceptional = [list(pt) for pt in self.exceptional]
        return {
            "theorem": self.theorem,
            "p": self.p,
            "mode": self.mode,
            "A": list(self.A),
            "B": list(self.B),
            "c": self.c,
            "lines": [list(line) for line in self.lines],
            "exceptional": exceptional,
            "degree": self.degree,
            "top_coefficient": self.top_coefficient,
            "summands": list(self.summands) if self.summands is not None else None,
            "verdict": self.verdict,
            "tight": self.tight,
        }

    @classmethod
    def from_json_dict(cls, data) -> "Certificate":
        """Parse the JSON form that `to_json_dict` writes.

        Raises ``ValueError("malformed certificate: ...")`` on any other
        shape: a non-object, a missing or unknown key, or a value of the
        wrong type.  Integers must be JSON integers, not floats or booleans.
        """
        if not isinstance(data, dict):
            raise _malformed(f"expected a JSON object, got {type(data).__name__}")
        names = [f.name for f in fields(cls)]
        for key in names:
            if key not in data:
                raise _malformed(f"missing key {key!r}")
        for key in data:
            if key not in names:
                raise _malformed(f"unknown key {key!r}")
        raw_exc = data["exceptional"]
        if raw_exc is None:
            exceptional: tuple[tuple[int, int], ...] = ()
        elif isinstance(raw_exc, list) and raw_exc and isinstance(raw_exc[0], list):
            if len(raw_exc) < 2:
                raise _malformed("a single exceptional point is written [t, s]")
            exceptional = tuple(_ints(pt, "exceptional point", 2) for pt in raw_exc)
        else:
            exceptional = (_ints(raw_exc, "exceptional", 2),)
        if not isinstance(data["lines"], list):
            raise _malformed("lines must be a list")
        summands = data["summands"]
        for key in ("theorem", "mode", "verdict"):
            if not isinstance(data[key], str):
                raise _malformed(f"{key} must be a string")
        if not isinstance(data["tight"], bool):
            raise _malformed("tight must be true or false")
        return cls(
            theorem=data["theorem"],
            p=_int(data["p"], "p"),
            mode=data["mode"],
            A=_ints(data["A"], "A"),
            B=_ints(data["B"], "B"),
            c=_int(data["c"], "c", optional=True),
            lines=tuple(_ints(line, "line", 3) for line in data["lines"]),
            exceptional=exceptional,
            degree=_int(data["degree"], "degree", optional=True),
            top_coefficient=_int(data["top_coefficient"], "top_coefficient", optional=True),
            summands=None if summands is None else _ints(summands, "summands", 2),
            verdict=data["verdict"],
            tight=data["tight"],
        )

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls.from_json_dict(json.loads(text))


def _malformed(why: str) -> ValueError:
    return ValueError(f"malformed certificate: {why}")


def _int(value, what: str, optional: bool = False) -> int | None:
    if (value is None and optional) or (
        isinstance(value, int) and not isinstance(value, bool)
    ):
        return value
    raise _malformed(f"{what} must be an integer{' or null' if optional else ''}")


def _ints(value, what: str, length: int | None = None) -> tuple[int, ...]:
    if not isinstance(value, list) or (length is not None and len(value) != length):
        raise _malformed(f"{what} must be a list of {length or 'any number of'} integers")
    return tuple(_int(v, what) for v in value)


class TheoremContradictionError(RuntimeError):
    """A proven bound failed numerically: an implementation bug, never math."""

    def __init__(self, message: str, payload: Certificate | None = None):
        super().__init__(message)
        self.payload = payload


def _inputs(theorem: str, A: ElementSet, B: ElementSet, c) -> Certificate:
    """The inputs alone, verdict HypothesisUnmet: every verdict's base."""
    return Certificate(
        theorem=theorem,
        p=A.field.p,
        mode=A.mode.value,
        A=A.values,
        B=B.values,
        c=None if c is None else int(A.field.element(c)),
    )


def _covered(
    theorem: str,
    A: ElementSet,
    B: ElementSet,
    c: int | None,
    lines: list[tuple[int, int, int]],
    hyperbola: bool,
    grid: Sequence[int],
    points: Sequence[tuple[int, int]],
    size: int,
    extra: int = 0,
) -> Certificate:
    """The last step of every cover argument, and its certificate.

    The product f of `lines`, times x*y - 1 when `hyperbola`, must vanish on
    A x `grid` (reduced residues) except at `points`, in A-then-grid order.
    Without zero divisors in GF(p) it vanishes where a factor does, so each
    row x = t solves for its zeros: a*x + b*y + g at y = -(a*t + g)/b when
    b != 0, on the whole row or nowhere when b = 0; x*y - 1 at y = 1/t.  The
    degree then forces `size` >= |A| + |B| - offset - `extra`, offset from
    `THEOREMS`; below it the certificate is a contradiction's payload, its
    top coefficient the grid sum over `points` of f(t, s) / (prod_{u != t}
    (t - u) * prod_{v != s} (s - v)), or None when deg f > |A| + |grid| - 2.
    """
    p = A.field.p
    flat = [(a, g) for a, b, g in lines if not b % p]
    sloped = [(a * u, g * u) for a, b, g in lines if b % p for u in [-pow(b, -1, p)]]
    profile = []
    for t in A.values:
        if not any((a * t + g) % p == 0 for a, g in flat):
            zeros = {(k * t + h) % p for k, h in sloped}
            if hyperbola and t:
                zeros.add(pow(t, -1, p))
            profile.extend((t, s) for s in grid if s not in zeros)
    if profile != list(points):
        raise AssertionError(f"cover profile {profile} != {list(points)}")
    bound = len(A) + len(B) - THEOREMS[theorem].offset - extra
    degree = len(lines) + 2 * hyperbola
    top = None
    if size < bound and degree <= len(A) + len(grid) - 2:
        top = 0
        for t, s in points:
            f = (t * s - 1) % p if hyperbola else 1
            for a, b, g in lines:
                f = f * (a * t + b * s + g) % p
            weight = difference_product(t, A.values, p) * difference_product(s, grid, p)
            top = (top + f * pow(weight, -1, p)) % p
    cert = replace(
        _inputs(theorem, A, B, c), lines=tuple(lines), exceptional=tuple(points),
        degree=degree, top_coefficient=top, verdict=BOUND_CERTIFIED, tight=size == bound,
    )
    if size < bound:
        raise TheoremContradictionError(
            f"{theorem}: restricted combine has {size} < {bound} elements on an instance "
            f"meeting the hypothesis (degree-{degree} cover, top coefficient {top})",
            payload=cert,
        )
    return cert


def _unique_cover(theorem: str, A: ElementSet, B: ElementSet, c) -> Certificate:
    """The cover argument from a unique restricted representation c = a o b.

    One line through every other restricted combine value g lies on the grid
    A x B, as x + y = g, or on A x B^-1, as x = g*y; the restriction a != b
    adds the diagonal x = y, or the hyperbola x*y = 1.  The product then
    vanishes on the grid except at (a, b), or (a, b^-1), and its degree is
    forced up to the bound of `theorem`, whose mode it takes from `THEOREMS`.
    """
    mode = THEOREMS[theorem].mode
    if A.mode is not mode or B.mode is not mode:
        raise ValueError(f"{mode.value} certificate needs {mode.value}-mode sets")
    c = A.field.element(c)
    reps = representations(A, B, c, restricted=True)
    if len(reps) != 1:
        return _inputs(theorem, A, B, c)
    a, b = reps[0].a.value, reps[0].b.value
    p = A.field.p
    combined = restricted_combine(A, B)
    others = [(-g) % p for g in combined.values if g != c.value]
    if mode is GroupMode.ADDITIVE:
        lines, grid, point = [(1, p - 1, 0)] + [(1, 1, h) for h in others], B.values, (a, b)
    else:
        lines, grid, point = [(1, h, 0) for h in others], inverse_set(B).values, (a, pow(b, -1, p))
    return _covered(
        theorem, A, B, c.value, lines, mode is GroupMode.MULTIPLICATIVE, grid, (point,), len(combined)
    )


def additive_cover_certificate(A: ElementSet, B: ElementSet, c) -> Certificate:
    """Certify |restricted sumset| >= |A| + |B| - 2 from a unique representation
    c = a + b, a != b: the diagonal x = y and the lines x + y = g through the
    other restricted sums g vanish on A x B except at (a, b)."""
    return _unique_cover("additive", A, B, c)


def multiplicative_cover_certificate(A: ElementSet, B: ElementSet, c) -> Certificate:
    """Certify |restricted product set| >= |A| + |B| - 3 from a unique
    representation c = a * b, a != b: x*y - 1 and the lines x - g*y through
    the other restricted products g vanish on A x B^-1 except at (a, b^-1)."""
    return _unique_cover("mult", A, B, c)


def symmetric_pair_summand(a, b, A: ElementSet, c) -> FieldElement:
    """Closed-form value attached to grid point (a, b^-1) in the two-rep bound.

    With n = |A| and P the restricted product set of A with itself,

        (a - b) * b^(2-n) * (-1)^(n-1) * prod_{g in P, g != c} (a*b - g)
        -----------------------------------------------------------------
        prod_{t in A, t != a} (a - t) * prod_{t in A, t != b} (b - t)
                            * prod_{u in A} u^-1

    The two values for (a, b) and (b, a) always satisfy
    summand(b, a) = -(b/a)^(n-2) * summand(a, b), which is why their sum can
    only vanish when a^(n-2) = b^(n-2).  When |P| = 2n - 4 the value equals
    the raw grid term of the coefficient interpolation formula; in general
    the two differ by the factor b^(|P| - (2n-4)).
    """
    if A.mode is not GroupMode.MULTIPLICATIVE:
        raise ValueError("summand needs a multiplicative-mode set")
    field = A.field
    p = field.p
    a = field.element(a)
    b = field.element(b)
    c = field.element(c)
    if a.value == b.value:
        raise ValueError("summand needs a != b")
    if a.value not in A.values or b.value not in A.values:
        raise ValueError("both a and b must lie in A")
    if a.value * b.value % p != c.value:
        raise ValueError("c must equal a * b")
    n = len(A)
    products = restricted_combine(A, A)
    num = (a.value - b.value) % p
    num = num * pow(b.value, (2 - n) % (p - 1) if p > 2 else 0, p) % p
    if n % 2 == 0:
        num = (-num) % p
    num = num * difference_product(c.value, products.values, p) % p
    den = difference_product(a.value, A.values, p) * difference_product(b.value, A.values, p)
    den = den * pow(math.prod(A.values), -1, p) % p
    if den == 0:
        raise AssertionError("vanishing denominator: duplicate set elements")
    return FieldElement(num * pow(den, -1, p) % p, field)


def symmetric_pair_certificate(A: ElementSet, c) -> Certificate:
    """Certify |restricted self-product| >= 2n - 3 under the pair hypothesis.

    The hypothesis: c has exactly two restricted representations in A * A,
    necessarily (a, b) and (b, a).  When the inequality already holds it is
    recorded as DirectlySatisfied together with the two closed-form summands.
    When it fails but a^(n-2) = b^(n-2), the improved bound makes no claim:
    HypothesisUnmet.  Any remaining case would force a nonzero value for a
    coefficient that degree counting proves to be zero: `_covered` checks
    that the lines x = g*y through the other products, times x*y - 1, leave
    (a, b^-1) and (b, a^-1) of A x A^-1, and raises the contradiction with
    its certificate as payload.  Exhaustive sweeps assert it never fires.
    """
    if A.mode is not GroupMode.MULTIPLICATIVE:
        raise ValueError("symmetric-pair certificate needs a multiplicative-mode set")
    p = A.field.p
    c = A.field.element(c)
    reps = representations(A, A, c, restricted=True)
    if len(reps) != 2 or (reps[0].a.value, reps[0].b.value) != (
        reps[1].b.value,
        reps[1].a.value,
    ):
        return _inputs("main", A, A, c)
    a, b = reps[0].a, reps[0].b
    n = len(A)
    products = restricted_combine(A, A)
    m = len(products)
    bound = 2 * n - THEOREMS["main"].offset
    if m >= bound:
        s1 = symmetric_pair_summand(a, b, A, c)
        s2 = symmetric_pair_summand(b, a, A, c)
        return replace(
            _inputs("main", A, A, c),
            summands=(s1.value, s2.value),
            verdict=DIRECTLY_SATISFIED,
            tight=m == bound,
        )
    if pow(a.value, n - 2, p) == pow(b.value, n - 2, p):
        return _inputs("main", A, A, c)
    # Bound violated with a^(n-2) != b^(n-2): the cover raises the contradiction.
    lines = [(1, (-g) % p, 0) for g in products.values if g != c.value]
    points = ((a.value, int(b.inverse())), (b.value, int(a.inverse())))
    return _covered("main", A, A, c.value, lines, True, inverse_set(A).values, points, m)


def hyperbola_cover_certificate(A: ElementSet, B: ElementSet) -> Certificate:
    """Certify |restricted product set| >= |A| + |B| - 2 - floor(|N|/2).

    N is the exceptional square set {a in A n B : a*a not in the restricted
    product set}.  The lines x = g*y (g over the restricted products) cover
    every grid point of A x B^-1 except the |N| hyperbola points (a, a^-1),
    a in N.  The smallest residue in N is designated to stay uncovered; the
    remaining points are taken in sorted order and covered two at a time by
    secants, with a leftover point (when |N| is even) covered by the vertical
    line through it alone: floor(|N|/2) added lines.  A secant through
    hyperbola points (u, 1/u) and (v, 1/v) meets the hyperbola nowhere else,
    and a vertical line meets it once.  The whole-grid profile check catches
    any other outcome: a secant that missed its points would leave them in
    the profile, one through (a*, 1/a*) would empty it.
    """
    if A.mode is not GroupMode.MULTIPLICATIVE or B.mode is not GroupMode.MULTIPLICATIVE:
        raise ValueError("hyperbola certificate needs multiplicative-mode sets")
    field = A.field
    p = field.p
    n_set = exceptional_square_set(A, B)
    if len(n_set) == 0:
        return _inputs("cover", A, B, None)
    products = restricted_combine(A, B)
    a_star, *rest = n_set.values
    lines = [(1, (-g) % p, 0) for g in products.values]
    for k in range(0, len(rest) - 1, 2):
        u, v = rest[k], rest[k + 1]
        lines.append((1, u * v % p, (-(u + v)) % p))
    if len(rest) % 2 == 1:
        lines.append((1, 0, (-rest[-1]) % p))
    return _covered(
        "cover", A, B, None, lines, False, inverse_set(B).values,
        ((a_star, pow(a_star, -1, p)),), len(products), extra=len(n_set) // 2,
    )


@dataclass(frozen=True)
class Theorem:
    """Everything the package needs to know about one bound.

    The bound reads |A o B| >= |A| + |B| - offset, with B = A for a
    single-set bound; `cover` further subtracts floor(|N|/2).  `build(A, B,
    c)` writes the bound's certificate (B is ignored by single-set bounds,
    c by `cover`).
    """

    mode: GroupMode | None  # None: the caller chooses (ks)
    pair: bool
    offset: int
    restricted: bool = True
    build: Callable[[ElementSet, ElementSet, object], Certificate] | None = None

    @property
    def replayed(self) -> bool:
        """Whether sweeps replay the certificate to classify a violation."""
        return not self.pair and self.build is not None


# The builders are looked up by name at call time, so that a module-level
# replacement of a builder (a tracer, say) also takes effect here.
THEOREMS = {
    "ks": Theorem(None, pair=True, offset=1, restricted=False),
    "additive": Theorem(
        GroupMode.ADDITIVE, pair=True, offset=2,
        build=lambda A, B, c: additive_cover_certificate(A, B, c),
    ),
    "mult": Theorem(
        GroupMode.MULTIPLICATIVE, pair=True, offset=3,
        build=lambda A, B, c: multiplicative_cover_certificate(A, B, c),
    ),
    "cover": Theorem(
        GroupMode.MULTIPLICATIVE, pair=True, offset=2,
        build=lambda A, B, c: hyperbola_cover_certificate(A, B),
    ),
    "main": Theorem(
        GroupMode.MULTIPLICATIVE, pair=False, offset=3,
        build=lambda A, B, c: symmetric_pair_certificate(A, c),
    ),
    "corollary-add": Theorem(GroupMode.ADDITIVE, pair=False, offset=3),
    "corollary-mult": Theorem(GroupMode.MULTIPLICATIVE, pair=False, offset=4),
}


def verify_certificate(cert: Certificate | dict) -> tuple[bool, list[str]]:
    """Re-check a certificate by rebuilding it from its own recorded inputs.

    Returns (ok, problems).  The certificate's builder runs again on the
    recorded p, mode, A, B and c; it re-derives the hypothesis, lays down
    the canonical factor list, checks its vanishing profile on the whole
    grid and checks the bound.  A certificate is valid exactly when the
    rebuilt one equals it field for field, so padded or reordered factor
    lists are rejected.  Needs no context beyond the certificate itself.
    A dict is parsed first and raises ValueError when malformed.
    """
    if isinstance(cert, dict):
        cert = Certificate.from_json_dict(cert)
    spec = THEOREMS.get(cert.theorem)
    if spec is None or spec.build is None:
        return False, [f"no certificate exists for theorem tag {cert.theorem!r}"]
    try:
        field = PrimeField(cert.p)
        mode = GroupMode(cert.mode)
        rebuilt = spec.build(
            ElementSet(field, mode, cert.A), ElementSet(field, mode, cert.B), cert.c
        )
    except (ValueError, TheoremContradictionError) as exc:
        return False, [f"cannot rebuild: {exc}"]
    problems = [
        f"{f.name}: recorded {getattr(cert, f.name)!r}, rebuilt {getattr(rebuilt, f.name)!r}"
        for f in fields(Certificate)
        if getattr(cert, f.name) != getattr(rebuilt, f.name)
    ]
    return not problems, problems
