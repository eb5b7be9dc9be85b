"""Exhaustive and sampled verification sweeps over small prime fields.

The sweeps enumerate subsets of the additive group Z_p or of the
multiplicative group GF(p)* (mapped to exponents of the smallest primitive
root, which turns products into index sums), filter by each bound's
hypothesis, and check the claimed inequality.  Subsets live in integer
bitmasks over group indices (`_Universe`).  A bound is read from the
elements that one, and that two or more, of its pairs represent ((a, b) for
a pair bound, {a, b} for a single-set bound; for `main` a pair whose
(n-2)-th powers agree counts twice).  `_eval` walks the pairs of A with an
arithmetic cyclic rotate, on one mask as a Python int or on a numpy array of
masks, for hunts, sweeps with a size cap and `main`; the unsized sweeps
build each mask's state from a smaller mask's with bit tables (`_passes`),
`_eval` being their oracle.  Every sweep counts through one worker,
`_partition`, `_BLOCK` rows at a time (`_count`), as arrays while masks fit
in 63 bits, as ints beyond; no array pass, table or temporary holds more
than `_BLOCK` masks.  Report entries are the rows that the sweep counted,
(amask, bmask, size, bound, targets), formatted without a second kernel
pass.  The `main` certificate is replayed only where the bound fails.

An exhaustive pair sweep evaluates one canonical A per orbit of the index
maps g: k -> u*k + mu (mod m), u a unit, against every B, with its counts
weighted by the orbit size.  Every pair bound is invariant under g applied to
A and B together, so sum_B f(gA, B) = sum_B f(A, B): the counts are exact.
The first entries, in direct (amask, bmask) order, are the rows of the
canonical A's mapped onto the members of their orbits (`_first_entries`):
one array pass per index map finds the members' maps, and their rows are
mapped all at once.

The CLI hands every `nullcert verify`, sampled runs too, to
`exhaustive_verify`, which forwards a sampled config to `hunt_counterexample`.
Both run one per-prime loop (`_sweep`).  Each prime's set-up (its
`_Universe`, its mask list) is built once and its blocks split into
partitions, which share one worker pool per command.

Instance accounting, used consistently by reports:

* ``examined``              -- enumerated (or sampled) input pairs/sets that
                               pass the size filter.
* ``hypothesis_satisfying`` -- qualifying (A, B, c) triples for the
                               unique-representation bounds, (A, B) pairs for
                               the cover bound, (A, c) pairs for the
                               single-set bounds.
* ``bound_holding``         -- the same units, restricted to instances where
                               the inequality holds.
* ``tight`` / ``counterexamples`` -- recorded per input pair/set, each entry
                               carrying every qualifying c.

Sampling uses splitmix64 (word k is the mix of seed + k * golden), recorded
in the report for cross-implementation reproducibility.  A hunt reads one
word stream across all of its primes, and `_draw_masks` fixes how words
become sets: it parses fetched words with array passes, word by word where
those do not pay, and gives back the words that no draw read.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
from dataclasses import dataclass, field as dataclass_field
import math
import time
from typing import Iterable

import numpy as np

from .certify import (
    THEOREMS,
    TheoremContradictionError,
    symmetric_pair_certificate,
)
from .field import (FieldElement, PrimeField, find_prime_with_subgroup, json_text, primitive_root_of_unity,
                    smallest_generator)
from .sets import ElementSet, GroupMode, representations, restricted_combine

DEFAULT_BUDGET = 1 << 26
DEFAULT_TIGHT_CAP = 2048
COUNTEREXAMPLE_LIST_CAP = 1000
PRNG_ALGORITHM = "splitmix64"

ALL_THEOREMS = tuple(THEOREMS)


class SplitMix64:
    """splitmix64 PRNG: 64-bit state, one golden-ratio increment per word.

    The state is a counter: word k (from 1) is a fixed mix of seed +
    k * golden (mod 2^64), so a block of words is one array computation and
    unread words go back by stepping the counter down."""

    _MASK = (1 << 64) - 1
    _GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_words(self, count: int) -> np.ndarray:
        """The next `count` words as a uint64 array (arithmetic wraps mod 2^64)."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self.state) + steps * np.uint64(self._GOLDEN)
        self.state = (self.state + count * self._GOLDEN) & self._MASK
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> 31)

    def unread(self, count: int) -> None:
        """Give back the last `count` words fetched: the next fetch starts with them."""
        self.state = (self.state - count * self._GOLDEN) & self._MASK


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep: theorem tag, primes, enumeration limits, sampling."""

    theorem: str
    primes: tuple[int, ...]
    group_mode: GroupMode | None = None
    max_set_size: int | None = None
    samples: int | None = None
    seed: int | None = None
    partitions: int = 1
    budget: int = DEFAULT_BUDGET
    tight_cap: int = DEFAULT_TIGHT_CAP
    attach_certificates: bool = False

    def resolved_mode(self) -> GroupMode:
        fixed = THEOREMS[self.theorem].mode
        if fixed is not None:
            if self.group_mode is not None and self.group_mode is not fixed:
                raise ValueError(
                    f"theorem {self.theorem!r} is {fixed.value}; got {self.group_mode.value}"
                )
            return fixed
        if self.group_mode is None:
            raise ValueError("theorem 'ks' needs an explicit group mode")
        return self.group_mode

    def validate(self) -> None:
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem tag {self.theorem!r}")
        if not self.primes:
            raise ValueError("at least one prime is required")
        repeated = sorted({p for p in self.primes if self.primes.count(p) > 1})
        if repeated:
            raise ValueError(f"repeated prime {', '.join(map(str, repeated))}")
        mode = self.resolved_mode()
        if self.seed is not None and not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2^64); got {self.seed}")
        if self.samples is not None:
            if self.samples < 0:
                raise ValueError("sample count must be >= 0")
            if self.seed is None:
                raise ValueError("sampled sweeps need a seed")
            if self.partitions != 1:
                raise ValueError("sampled sweeps run single-partition")
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if self.max_set_size is not None and self.max_set_size < 1:
            raise ValueError("max set size must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.tight_cap < 0:
            raise ValueError("tight list cap must be >= 0")
        if self.samples is None and self.seed is not None:
            raise ValueError("exhaustive sweeps take no seed")
        # every prime is checked before any is swept: for an exhaustive sweep
        # the 63-bit limit of the masks, then the budget's first step
        for p in self.primes:
            PrimeField(p)
            m = p if mode is GroupMode.ADDITIVE else p - 1
            if self.samples is None and m >= 64:
                raise ValueError(f"exhaustive sweep at p = {p} needs {m}-bit masks; at most 63 are supported")
            if self.samples is None and THEOREMS[self.theorem].pair:
                orbit_ops = m * len(_units(m)) * _mask_count(m, self.max_set_size)
                _check_budget(p, orbit_ops, "mask operations to find the A-orbits", self.budget)
            elif self.samples is None:
                _check_budget(p, _mask_count(m, self.max_set_size) - 1, "checks", self.budget)

    def echo(self) -> dict:
        return {
            "theorem": self.theorem,
            "primes": list(self.primes),
            "group_mode": self.resolved_mode().value,
            "max_set_size": self.max_set_size,
            "sweep": "exhaustive" if self.samples is None else "sample",
            "samples": self.samples,
            "seed": self.seed,
            "partitions": self.partitions,
            "budget": self.budget,
            "tight_cap": self.tight_cap,
            "attach_certificates": self.attach_certificates,
        }


# the counters of PrimeStats, in report and CSV column order
COUNTERS = (
    "examined",
    "hypothesis_satisfying",
    "bound_holding",
    "tight_count",
    "counterexample_count",
    "contradictions",
)


@dataclass
class PrimeStats:
    """Counts for one prime.  While a sweep runs, `tight` and
    `counterexamples` hold the kernel rows it counted, (amask, bmask, size,
    bound, targets), bmask = amask for single sets (rows of canonical A's in
    a pair sweep until `_first_entries`); `_materialize` formats them as
    report entries."""

    p: int
    examined: int = 0
    hypothesis_satisfying: int = 0
    bound_holding: int = 0
    tight_count: int = 0
    counterexample_count: int = 0
    contradictions: int = 0
    tight: list = dataclass_field(default_factory=list)
    counterexamples: list = dataclass_field(default_factory=list)

    @classmethod
    def merge(cls, p: int, parts: Iterable["PrimeStats"], tight_cap: int) -> "PrimeStats":
        """Sum of partition stats; entry lists concatenate in partition order."""
        out = cls(p)
        for part in parts:
            for name in COUNTERS:
                setattr(out, name, getattr(out, name) + getattr(part, name))
            out.tight += part.tight
            out.counterexamples += part.counterexamples
        del out.tight[tight_cap:]
        del out.counterexamples[COUNTEREXAMPLE_LIST_CAP:]
        return out

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            **{name: getattr(self, name) for name in COUNTERS},
            "tight": self.tight,
            "counterexamples": self.counterexamples,
        }


@dataclass
class Report:
    """Outcome of a sweep.  Wall time stays out of serialized output so that
    reruns with identical configuration produce byte-identical files."""

    config: dict
    prng: dict | None
    per_prime: list[PrimeStats]
    wall_time_s: float = 0.0

    @property
    def counterexample_total(self) -> int:
        return sum(s.counterexample_count for s in self.per_prime)

    @property
    def contradiction_total(self) -> int:
        return sum(s.contradictions for s in self.per_prime)

    def ok(self) -> bool:
        return self.counterexample_total == 0 and self.contradiction_total == 0

    def stats_for(self, p: int) -> PrimeStats:
        for s in self.per_prime:
            if s.p == p:
                return s
        raise KeyError(f"no stats for p = {p}")

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "prng": self.prng,
            "per_prime": [s.to_json_dict() for s in self.per_prime],
            "totals": {
                name: sum(getattr(s, name) for s in self.per_prime)
                for name in COUNTERS
            },
        }

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    def to_csv(self) -> str:
        rows = [",".join(("theorem", "p") + COUNTERS)]
        for s in self.per_prime:
            values = [self.config["theorem"], s.p] + [getattr(s, name) for name in COUNTERS]
            rows.append(",".join(str(v) for v in values))
        return "\n".join(rows) + "\n"


# --------------------------------------------------------------------------
# group universes: subsets as bitmasks over group indices
# --------------------------------------------------------------------------


class _Universe:
    """Indexing of a cyclic group: bit k of a mask is the k-th group element.

    Additive mode indexes residues directly; multiplicative mode indexes
    exponents of the smallest primitive root, so the group operation is
    index addition mod m in both cases.
    """

    def __init__(self, p: int, mode: GroupMode):
        self.field = PrimeField(p)
        self.mode = mode
        if mode is GroupMode.ADDITIVE:
            self.m, self.residues = p, tuple(range(p))
        else:
            g = int(smallest_generator(self.field))
            self.m, self.residues = p - 1, tuple(pow(g, k, p) for k in range(p - 1))

    def mask_to_values(self, mask: int) -> list[int]:
        return sorted(self.residues[k] for k in _mask_bits(mask))

    def masks_to_values(self, masks) -> list[list[int]]:
        """`mask_to_values` of each int in `masks`, `_BLOCK` masks at a time:
        their bytes are unpacked to one row of bits per mask, the bits taken
        in ascending-residue order, so the selected values come out sorted,
        and one list of them is sliced per mask.  The same for every m."""
        width = (self.m + 7) // 8
        by_residue, values = np.argsort(self.residues), np.sort(self.residues)
        out = []
        for lo in range(0, len(masks), _BLOCK):
            run = masks[lo:lo + _BLOCK]
            packed = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in run), dtype=np.uint8)
            bits = np.unpackbits(packed.reshape(len(run), width), axis=1, bitorder="little")[:, by_residue].view(bool)
            found, ends = np.broadcast_to(values, bits.shape)[bits].tolist(), np.cumsum(bits.sum(axis=1)).tolist()
            out += [found[start:end] for start, end in zip([0, *ends], ends)]
        return out


def _cyclic_shift(mask, a, m: int):
    """Rotate an m-bit mask, or an array of them, by a places (0 <= a < m);
    `a` may be an array of the masks' dtype, one shift per mask."""
    return ((mask << a) | (mask >> (m - a))) & ((1 << m) - 1)


def _units(m: int) -> list[int]:
    """The units mod m: the multipliers of the index maps."""
    return [u for u in range(m) if math.gcd(u, m) == 1]


def _mask_count(m: int, max_set_size: int | None) -> int:
    """sum_{j<=k} C(m, j): the m-bit masks, the empty one included, with at
    most k = `max_set_size` bits.  Needs m <= 63, which `SweepConfig.validate`
    enforces before any caller runs."""
    k = m if max_set_size is None else min(max_set_size, m)
    return sum(math.comb(m, j) for j in range(k + 1))


def _masks_upto(m: int, max_set_size: int | None) -> np.ndarray:
    """Every nonempty m-bit mask with at most `max_set_size` bits, ascending,
    built at the cost of its length: the masks with top bit b are those below
    2^b with fewer than k bits, with bit b set, and follow all of them.
    uint32 up to m = 32, uint64 up to m = 63."""
    k = m if max_set_size is None else min(max_set_size, m)
    masks = np.zeros(_mask_count(m, k), dtype=np.uint32 if m <= 32 else np.uint64)
    n = 1  # masks[:n] holds the empty mask and the masks below 2^b
    for b in range(m):
        below = masks[:n] if b < k else masks[:n][np.bitwise_count(masks[:n]) < k]
        np.bitwise_or(below, 1 << b, out=masks[n:n + len(below)])
        n += len(below)
    return masks[1:]


def _orbits(m: int, masks: np.ndarray) -> tuple:
    """(canon, reps, weights) for the index maps k -> u*k + mu (mod m) on an
    ascending list of masks closed under them (`_masks_upto`): canon[i] is
    the least image of masks[i], found with one array pass per map over each
    run of `_BLOCK` masks; reps are the canonical masks, ascending, and
    weights their orbit sizes."""
    canon = masks.copy()
    for lo in range(0, len(masks), _BLOCK):
        run, least = masks[lo:lo + _BLOCK], canon[lo:lo + _BLOCK]
        for u in _units(m):
            # scale the masks, not `least`: that would compound the units
            image = _scale(run, u, m)
            for mu in range(m):
                np.minimum(least, _cyclic_shift(image, mu, m), out=least)
    return (canon, *np.unique(canon, return_counts=True))


def _scale(mask, u, m: int):
    """The image of an m-bit mask, or of each mask in an array, under
    k -> u*k (mod m): the bit permutation of the index maps.  `u` may be an
    array of the masks' dtype, one unit per mask."""
    image = mask & 0
    for k in _mask_bits(mask):
        image |= (mask >> k & 1) << (u * k % m)
    return image


def _index_maps(m: int, reps: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, mu) per member: the first index map k -> u*k + mu (mod m), units
    and then shifts ascending, that carries reps[i] onto members[i], a member
    of its orbit; one array pass per map, as in `_orbits`, until every
    member has its map."""
    u, mu, open_ = np.zeros_like(members), np.zeros_like(members), np.ones(len(members), dtype=bool)
    for unit in _units(m):
        if not open_.any():
            break
        image = _scale(reps, unit, m)
        for shift in range(m):
            hit = open_ & (_cyclic_shift(image, shift, m) == members)
            u[hit], mu[hit], open_[hit] = unit, shift, False
    return u, mu


def _mask_bits(mask) -> list[int]:
    """The set bits of an int mask, or of any mask in an array, ascending."""
    if not isinstance(mask, int):
        mask = int(np.bitwise_or.reduce(mask))
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


# --------------------------------------------------------------------------
# the mask kernel: every bound is evaluated here, on one mask as a Python
# int or on a numpy array of masks
# --------------------------------------------------------------------------

# Masks per array pass (the rows of a `_count` call, a run of `_orbits`, a
# hunt's block of draws, a PRNG fetch); bounds every pass's temporaries.
_BLOCK = 16384


def _popcount(masks):
    """Set bits of an int mask, or of each mask in an array (as int16: it holds
    any bound, and keeps the kernel's temporaries small)."""
    if isinstance(masks, int):
        return masks.bit_count()
    return np.bitwise_count(masks).astype(np.int16)


def _shifts(amask, masks, m: int, spec):
    """Yield (a, masks rotated by a) for each a in A, without the b that
    `spec` does not pair with a: b = a for a restricted pair bound, b <= a
    for a single-set bound (B = A), which walks each {a, b} once.  `amask` is
    one A (an int) or an array holding the A of each mask; then the rotation
    is zero where a is not in that A."""
    full = (1 << m) - 1
    for a in _mask_bits(amask):
        drop = spec.restricted << a if spec.pair else (2 << a) - 1
        yield a, _cyclic_shift(masks & ((full ^ drop) & -(amask >> a & 1)), a, m)


def _subgroup_mask(k: int, m: int) -> int:
    """The d in Z_m with k * d = 0 (mod m), as a mask: the multiples of
    m / gcd(k, m)."""
    step = m // math.gcd(k, m)
    return ((1 << m) - 1) // ((1 << step) - 1)


def _eval(theorem: str, m: int, amask, bmasks) -> tuple:
    """(size of A o B, bound, targets) for `theorem`, with B = A for a
    single-set bound, in one walk of `_shifts`.  `targets` is the mask of the
    c that exactly one of the walked pairs represents (unique
    representability), a `main` pair whose (n-2)-th powers agree counting
    twice; for `cover` it is N.  `amask` is one A (an int) or an array with
    the A of each B; `bmasks` is one B or an array.  Lists of Python ints,
    the draws of a hunt whose masks pass 63 bits (the rotate shifts right by
    up to m bits), go one draw at a time."""
    if isinstance(amask, list):
        rows = [_eval(theorem, m, a, b) for a, b in zip(amask, bmasks)]
        return tuple(np.array(rows, dtype=object).reshape(-1, 3).T)
    spec, n = THEOREMS[theorem], _popcount(amask)
    if theorem == "main":
        # a pair (a, b) has equal (n-2)-th powers when a - b lies in the
        # subgroup killed by n - 2, and counts as a second representation
        killed = (_subgroup_mask(n - 2, m) if isinstance(amask, int) else
                  np.array([_subgroup_mask(k - 2, m) for k in range(m + 1)], dtype=amask.dtype)[n])
    # the elements with at least one and two representations
    once, twice = bmasks & 0, bmasks & 0
    for a, shifted in _shifts(amask, bmasks, m, spec):
        if theorem != "cover":  # `cover` reads only `once`
            twice |= once & shifted
        if theorem == "main":
            twice |= shifted & _cyclic_shift(killed, 2 * a % m, m)
        once |= shifted
    size = _popcount(once)
    bound = n + _popcount(bmasks) - spec.offset
    if theorem == "cover":
        # N: a in A and B whose square (index 2a) is missing from A x. B
        both, squared = amask & bmasks, bmasks & 0
        for a in _mask_bits(both):
            squared |= (once >> (2 * a % m) & 1) << a
        n_mask = both & ~squared
        return size, bound - _popcount(n_mask) // 2, n_mask
    return size, bound, once & ~twice


def _doubled(shape: tuple, state, added, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(once, twice) tables of `shape` from `state`, entry 0 of the last axis,
    by doubling: entry l + 2^j, l < 2^j, is entry l plus bit j's sums, `added(j, k)` for l < k."""
    once, twice = np.empty(shape, dtype), np.empty(shape, dtype)
    once[..., 0], twice[..., 0] = state
    for j in range((shape[-1] - 1).bit_length()):
        half, k = 1 << j, min(1 << j, shape[-1] - (1 << j))
        sums = added(j, k)
        np.bitwise_or(twice[..., :k], once[..., :k] & sums, out=twice[..., half:half + k])
        np.bitwise_or(once[..., :k], sums, out=once[..., half:half + k])
    return once, twice


def _pair_passes(m: int, theorem: str, blocks: list, dtype):
    """`_passes` of an unsized pair sweep's blocks (A, every B, weight): (once,
    twice) tables of B's low and high bits, a row per A of a run, are doubled
    up and broadcast against each other; c is a target if one half has it once
    and the other not.  For `cover` the a with 2a in `once` stand in for `twice`."""
    spec, low = THEOREMS[theorem], (m + 1) // 2
    sizes, per_run, width = _popcount(np.arange(1 << low, dtype=dtype)), _BLOCK >> low, 1 << low
    for first in range(0, len(blocks), per_run):
        run, b = blocks[first:first + per_run], np.arange(m, dtype=dtype)
        steps = _cyclic_shift(np.array([[a] for a, _, _ in run], dtype) & ~(dtype(spec.restricted) << b), b, m)
        tables = [_doubled((len(run), 1 << bits), (0, 0), lambda j, k, at=at: steps[:, at + j, None], dtype)
                  for at, bits in ((0, low), (low, m - low))]
        (low_once, low_free), (high_once, high_free) = (  # `free`: in neither half's `twice`
            (once, ~(sum((once >> (2 * a % m) & 1) << a for a in range(m)) if theorem == "cover" else twice))
            for once, twice in tables)
        for r, (amask, bmasks, weight) in enumerate(run):
            high_size = sizes[:1 << m - low] + (amask.bit_count() - spec.offset)
            for lo in range(bmasks.start, bmasks.stop, _BLOCK):
                rows = np.arange(lo, hi := min(lo + _BLOCK, bmasks.stop), dtype=dtype)
                (once, alone, free), bound = (np.empty_like(rows) for _ in range(3)), np.empty(hi - lo, np.int16)
                # the part rows at either end and the whole rows between
                cuts = sorted({lo, hi, min(hi, -(-lo // width) * width), max(lo, hi // width * width)})
                for start, stop in zip(cuts, cuts[1:]):
                    (r0, c0), span = divmod(start, width), stop - start
                    high, cols = (r, slice(r0, r0 + max(1, span // width)), None), (r, slice(c0, c0 + min(span, width)))
                    o, a, f, t = (column[start - lo:stop - lo].reshape(high[1].stop - r0, -1)
                                  for column in (once, alone, free, bound))
                    np.bitwise_or(high_once[high], low_once[cols], out=o)
                    np.bitwise_and(high_free[high], low_free[cols], out=f)
                    np.add(high_size[high[1:]], sizes[cols[1]], out=t)
                    if theorem != "cover":  # `cover` reads no targets from `alone`
                        np.bitwise_xor(high_once[high], low_once[cols], out=a)
                size = _popcount(once)  # `cover`: N, as in `_eval`, is A & B whose squares are free
                yield amask, rows, weight, ((size, bound, alone & free) if theorem != "cover" else
                                            (size, bound - _popcount(n_mask := amask & rows & free) // 2, n_mask))


def _passes(m: int, theorem: str, blocks: Iterable[tuple]):
    """Each `_BLOCK`-row pass of a partition's blocks (a run of A-masks of a
    single-set sweep as A and B, one canonical A with every B of a pair
    sweep, `range`s if unsized, or a hunt's draws) as (amasks, bmasks,
    weight, row): `row` is None for `_eval`, or the incremental kernel's
    (size, bound, targets) for an unsized sweep but `main` (its power filter
    needs the final size) and pairs past 2 log2 `_BLOCK` bits (28 by default,
    past any budget).  Adding b to B adds the sums S_b (A rotated by b, less
    b for a restricted bound), each once: once(B + b) = once(B) | S_b,
    twice(B + b) = twice(B) | (once(B) & S_b) (`_pair_passes`); adding t to a
    single set X adds X rotated by t, in windows of 2^w <= `_BLOCK` sets
    doubled over their low bits from the state of their high bits."""
    spec, dtype = THEOREMS[theorem], np.uint32 if m <= 32 else np.uint64
    width = 1 << min(m, _BLOCK.bit_length() - 1)
    fast = theorem != "main" and (not spec.pair or m <= 2 * (_BLOCK.bit_length() - 1))
    for incremental, group in itertools.groupby(blocks, lambda block: fast and isinstance(block[1], range)):
        if incremental and spec.pair:
            yield from _pair_passes(m, theorem, list(group), dtype)
            continue
        for amasks, bmasks, weight in group:
            if isinstance(bmasks, range):
                lo, bmasks = bmasks.start, np.arange(bmasks.start, bmasks.stop, dtype=dtype)
                amasks = amasks if spec.pair else bmasks
            if not incremental:
                for at in range(0, len(bmasks), _BLOCK):
                    run = amasks if isinstance(amasks, int) else amasks[at:at + _BLOCK]
                    yield run, bmasks[at:at + _BLOCK], weight, None
                continue
            once, twice = np.empty_like(bmasks), np.empty_like(bmasks)  # a block of sets is one pass
            for base in range(lo - lo % width, lo + len(bmasks), width):
                start, stop, state, seen = max(lo - base, 0), min(lo + len(bmasks) - base, width), (0, 0), 0
                for t in _mask_bits(base):
                    added, seen = _cyclic_shift(seen, t, m), seen | 1 << t
                    state = state[0] | added, state[1] | state[0] & added
                sets, at = np.arange(base, base + stop, dtype=dtype), slice(base + start - lo, base + stop - lo)
                window = _doubled((stop,), state, lambda j, k: _cyclic_shift(sets[:k], j, m), dtype)
                once[at], twice[at] = window[0][start:], window[1][start:]
            yield bmasks, bmasks, weight, (_popcount(once), 2 * _popcount(bmasks) - spec.offset, once & ~twice)


def _count(stats: PrimeStats, universe: _Universe, theorem: str, amasks, bmasks,
           tight_cap: int, weight: int = 1, row: tuple | None = None) -> None:
    """Count the rows of `amasks` and `bmasks` into `stats`, each `weight`
    times, from their (size, bound, targets), `row` or else `_eval`'s,
    recording the tight and violated rows, up to their caps, as (amask,
    bmask, size, bound, targets) of Python ints, taken with one index and one
    `tolist` per column.  `amasks` is one A (an int) or the A of each row,
    `bmasks` the B of each row, the A itself for single sets.  A target is
    one hypothesis unit (a `cover` pair counts once when N is nonempty); the
    bound holds for all units but the violated rows'.  A violated `main`
    bound replays the certificate for each target: only there can it raise."""
    size, bound, targets = _eval(theorem, universe.m, amasks, bmasks) if row is None else row
    has_c = targets != 0
    units = has_c if theorem == "cover" else _popcount(targets)
    tight = has_c & (size == bound)
    violated = has_c & (size < bound)
    hypothesis, bad = int(units.sum()), int(np.count_nonzero(violated))
    stats.examined += weight * len(size)
    stats.hypothesis_satisfying += weight * hypothesis
    stats.bound_holding += weight * (hypothesis - (int(units[violated].sum()) if bad else 0))
    stats.tight_count += weight * int(np.count_nonzero(tight))
    stats.counterexample_count += weight * bad
    if isinstance(bmasks, list):  # a hunt's draws past 63 bits
        amasks, bmasks = np.array(amasks, dtype=object), np.array(bmasks, dtype=object)
    for rows, flags, cap in ((stats.tight, tight, tight_cap),
                             (stats.counterexamples, violated, COUNTEREXAMPLE_LIST_CAP)):
        if len(rows) < cap and flags.any():
            picked = np.flatnonzero(flags)[:cap - len(rows)]
            rows += zip(itertools.repeat(amasks) if isinstance(amasks, int) else amasks[picked].tolist(),
                        *(column[picked].tolist() for column in (bmasks, size, bound, targets)))
    if not THEOREMS[theorem].replayed:
        return
    for i in np.flatnonzero(violated):
        a_set = ElementSet(universe.field, universe.mode, universe.mask_to_values(int(amasks[i])))
        for c in _mask_bits(int(targets[i])):
            try:
                symmetric_pair_certificate(a_set, universe.residues[c])
            except TheoremContradictionError:
                stats.contradictions += 1


# --------------------------------------------------------------------------
# exhaustive sweeps and report entries
# --------------------------------------------------------------------------


def _partition(universe: _Universe, theorem: str, blocks, tight_cap: int) -> PrimeStats:
    """Count each pass of `blocks` (`_passes`, `_count`); returns partial stats.
    `blocks` is an iterable of (amasks, bmasks, weight), or a single-set
    sweep's run of masks (a `range` or an array), cut here into blocks of
    `_BLOCK` sets, each A and B, as the passes reach them."""
    if isinstance(blocks, (range, np.ndarray)):
        masks = blocks
        blocks = ((run, run, 1) for run in (masks[lo:lo + _BLOCK] for lo in range(0, len(masks), _BLOCK)))
    stats = PrimeStats(universe.field.p)
    for amasks, bmasks, weight, row in _passes(universe.m, theorem, blocks):
        _count(stats, universe, theorem, amasks, bmasks, tight_cap, weight, row)
    return stats


def _first_entries(universe: _Universe, theorem: str, stats: PrimeStats, masks: np.ndarray,
                   canon: np.ndarray, tight_cap: int) -> None:
    """Replace the rows of canonical A's in merged pair stats by the first
    rows in direct (amask, bmask) order, min(cap, count) per list, without a
    kernel pass.

    A member gA of an orbit has the rows of its canonical A mapped by g,
    k -> u*k + mu: the same size and bound, gB, and the targets mapped as
    A o B is (k -> u*k + nu, nu = 2mu; N by g itself, nu = mu); sorted by B
    they are its rows in direct order.  The merge lists the first cap rows of
    canonical A's, ascending, so every listed A has all of its rows but maybe
    the last, whose own rows fill the list before any other member of its
    orbit, all larger, comes up.  An A whose orbit has no listed row comes
    after cap rows in direct order, as every member of an orbit has as many
    rows as its canonical A, the least.  So the members of the listed orbits
    are picked, ascending, until their rows cover the list; `_index_maps`
    finds their maps, every picked row is mapped at once, and one lexsort on
    (member, gB) puts the rows in direct order."""
    m = universe.m
    for name, cap, count in (("tight", tight_cap, stats.tight_count),
                             ("counterexamples", COUNTEREXAMPLE_LIST_CAP, stats.counterexample_count)):
        rows = getattr(stats, name)
        if not rows:
            continue
        amasks, bmasks, size, bound, targets = (np.array(column, dtype=masks.dtype) for column in zip(*rows))
        # the rows of each listed canonical A are a run of `rows`, ascending in B
        reps, starts, lengths = np.unique(amasks, return_index=True, return_counts=True)
        listed, want = np.isin(canon, reps), min(cap, count)
        members, of = masks[listed], np.searchsorted(reps, canon[listed])
        picked = np.searchsorted(np.cumsum(lengths[of]), want) + 1
        members, of = members[:picked], of[:picked]
        u, mu = _index_maps(m, reps[of], members)
        # the picked rows, member by member: the run of each one's canonical A
        runs = lengths[of]
        owner = np.repeat(np.arange(picked), runs)
        row = np.arange(len(owner)) + np.repeat(starts[of] - (np.cumsum(runs) - runs), runs)
        u, mu = u[owner], mu[owner]
        nu = mu if theorem == "cover" else 2 * mu % m
        mapped_b = _cyclic_shift(_scale(bmasks[row], u, m), mu, m)
        mapped_targets = _cyclic_shift(_scale(targets[row], u, m), nu, m)
        order = np.lexsort((mapped_b, owner))[:want]
        columns = (members[owner], mapped_b, size[row], bound[row], mapped_targets)
        setattr(stats, name, list(zip(*(column[order].tolist() for column in columns))))


def _runs(n: int, parts: int) -> list[tuple[int, int]]:
    """`parts` contiguous runs [lo, hi) of near-equal length covering [0, n)."""
    return [(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


def _materialize(universe: _Universe, theorem: str, stats: PrimeStats, attach: bool) -> None:
    """Format the kernel rows of `stats` as report entries; with `attach`,
    each tight entry carries the certificate for its first target in
    mask-bit order.  The A, B and target masks of a list are unpacked in one
    `_Universe.masks_to_values` call, and its entries built from columns."""
    spec = THEOREMS[theorem]
    for name, builder in (("tight", spec.build if attach else None), ("counterexamples", None)):
        rows = getattr(stats, name)
        amasks, bmasks, sizes, bounds, targets = zip(*rows) if rows else ((),) * 5
        values, n = universe.masks_to_values(amasks + bmasks + targets if spec.pair else amasks + targets), len(rows)
        a_values, t_values = values[:n], values[len(values) - n:]
        b_values = values[n:2 * n] if spec.pair else a_values
        columns = {"A": a_values, "size": sizes, "bound": bounds, "N" if theorem == "cover" else "c": t_values}
        if spec.pair:
            columns["B"] = b_values
        if builder is not None:
            def certificate(a, b, target):
                A, B = (ElementSet(universe.field, universe.mode, v) for v in (a, b))
                c = universe.residues[(target & -target).bit_length() - 1] if target else None
                return builder(A, B, c).to_json_dict()
            columns["certificate"] = list(map(certificate, a_values, b_values, targets))
        setattr(stats, name, [dict(zip(columns, row)) for row in zip(*columns.values())])


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------


def _check_budget(p: int, count: int, what: str, budget: int) -> None:
    if count > budget:
        raise ValueError(f"exhaustive sweep at p = {p} needs {count} {what}, over the budget of {budget}")


def _sweep(config: SweepConfig, prng: dict | None, prime_stats) -> Report:
    """The per-prime loop of every sweep: `prime_stats(universe)` counts one
    prime, whose raw entries then become report entries."""
    mode = config.resolved_mode()
    started = time.monotonic()
    per_prime: list[PrimeStats] = []
    for p in config.primes:
        universe = _Universe(p, mode)
        stats = prime_stats(universe)
        _materialize(universe, config.theorem, stats, config.attach_certificates)
        per_prime.append(stats)
    return Report(config.echo(), prng, per_prime, time.monotonic() - started)


def exhaustive_verify(config: SweepConfig, jobs: int = 1) -> Report:
    """Check the bound on every subset pair (one canonical A per orbit,
    weighted) or set, within budget.

    The one entry point of `nullcert verify`: it checks `jobs` against the
    partitions, forwards a sampled config to `hunt_counterexample`, and
    validates an exhaustive one.  Deterministic given the configuration; the
    partitioned sweep merges to the same report as a single-partition run.
    """
    # a partition count below 1 is left to `validate`, which names it
    if not 1 <= jobs <= max(config.partitions, 1):
        raise ValueError(f"jobs must be between 1 and partitions ({config.partitions}); got {jobs}")
    if config.samples is not None:
        return hunt_counterexample(config)
    config.validate()
    theorem, max_size = config.theorem, config.max_set_size
    is_pair = THEOREMS[theorem].pair

    def prime_stats(universe: _Universe) -> PrimeStats:
        p, m = universe.field.p, universe.m
        masks = range(1, 1 << m) if max_size is None and not is_pair else _masks_upto(m, max_size)
        if is_pair:
            canon, reps, weights = _orbits(m, masks)
            _check_budget(p, len(reps) * len(masks), "checks", config.budget)
            blocks = [(rep, range(1, 1 << m) if max_size is None else masks, weight)
                      for rep, weight in zip(reps.tolist(), weights.tolist())]
            tasks = [(universe, theorem, blocks[lo:hi], config.tight_cap)
                     for lo, hi in _runs(len(blocks), min(config.partitions, len(blocks)))]
        else:  # each partition a run of whole blocks of masks, which it cuts itself
            count = -(-len(masks) // _BLOCK)
            tasks = [(universe, theorem, masks[lo * _BLOCK:hi * _BLOCK], config.tight_cap)
                     for lo, hi in _runs(count, min(config.partitions, count))]
        stats = PrimeStats.merge(p, starmap(_partition, tasks), config.tight_cap)
        if is_pair:
            _first_entries(universe, theorem, stats, masks, canon, config.tight_cap)
        return stats

    with multiprocessing.get_context("fork").Pool(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        starmap = itertools.starmap if pool is None else pool.starmap
        return _sweep(config, None, prime_stats)


def _read_draws(words: list[int], m: int, max_set_size: int | None, count: int) -> tuple[list[int], int]:
    """Up to `count` draws read one word at a time from the front of `words`:
    the masks of those that end within the list, and the words they read."""
    full, k, shifts, read = (1 << m) - 1, min(max_set_size or m, m), range(0, m, 64), iter(words)
    masks, unread, left = [], len(words), read.__length_hint__
    with contextlib.suppress(StopIteration):  # a draw runs past the list
        for _ in range(count):
            mask = 0
            if max_set_size is not None:
                size = 1 + next(read) % k
                while mask.bit_count() < size:
                    mask |= 1 << next(read) % m
            else:
                while not mask:
                    for shift in shifts:  # word j fills bits 64j and up
                        mask |= next(read) << shift
                    mask &= full
            masks.append(mask)
            unread = left()
    return masks, len(words) - unread


def _parse_capped(words: np.ndarray, m: int, k: int, count: int, window: int) -> tuple[np.ndarray, int]:
    """`_read_draws` for capped draws, m < 64, by array passes: pass t ORs in
    bit (word i + t) mod m for every offset i, so a draw with size word i that
    lacks bits in t - 1 of `window` passes ends at word i + t.  One walk follows
    the ends from offset 0; a draw unsettled in the window goes on word by word."""
    n, dtype = len(words), np.uint32 if m <= 32 else np.uint64
    bits = np.concatenate([np.left_shift(dtype(1), (words % np.uint64(m)).astype(dtype)), np.zeros(window, dtype)])
    sizes, acc, short = (words % np.uint64(k)).astype(np.uint8) + 1, np.zeros(n, dtype), np.zeros(n, np.uint8)
    for t in range(1, window + 1):
        acc |= bits[t:t + n]
        short += np.bitwise_count(acc) < sizes
    ends, starts, pos = memoryview(np.where(short < window, np.arange(2, n + 2, dtype=np.int32) + short, 0)), [], 0
    with contextlib.suppress(IndexError):  # the walk or a draw runs past the words
        for _ in range(count):
            end = ends[pos]
            if not end:
                mask, end, size = int(acc[pos]), pos + 1 + window, int(sizes[pos])
                while mask.bit_count() < size:
                    mask |= 1 << int(words[end]) % m
                    end += 1
            starts.append(pos)
            pos = end
    starts = np.array(starts, dtype=np.intp)
    bits[starts] = 0  # a draw's index words run from its size word to the next draw's
    return np.bitwise_or.reduceat(bits[:pos], starts + 1) if len(starts) else bits[:0], pos


def _draw_masks(rng: SplitMix64, m: int, max_set_size: int | None, count: int):
    """`count` random nonempty subset masks from `rng`, in the documented
    draw order for replay: an array of `_masks_upto`'s dtype while m < 64, a
    list of ints beyond.  With a size cap: draw size = 1 + (word mod
    min(cap, m)), then draw that many distinct indices as word mod m,
    redrawing collisions.  Without a cap: draw ceil(m / 64) words, the k-th
    filling bits 64k and up, truncate to m bits, redraw an empty mask.

    Up to `_BLOCK` words are fetched at a time; unread ones go back.  While
    m < 64 arrays parse the draws: uncapped, the nonzero words; capped
    (`_parse_capped`), in a window of the mean plus two deviations of the
    index words of a cap-sized draw, if at most 64.  The rest are read word
    by word (`_read_draws`)."""
    k, dtype = min(max_set_size or m, m), np.uint32 if m <= 32 else np.uint64
    window, expected = 0, (m + 63) // 64 / (1 - 2.0 ** -m)
    if max_set_size is not None:
        new = 1 - np.arange(k) / m  # the chance that an index word is new after j distinct
        window = math.ceil(np.sum(1 / new) + 2 * np.sqrt(np.sum((1 - new) / new ** 2)))
        window, expected = window if window <= 64 else 0, 1 + np.mean(np.cumsum(1 / new))
    arrays, parts, floor = m < 64 and (window > 0 or max_set_size is None), [], 1
    while count:
        n = max(floor, min(math.ceil(count * expected * 1.05) + 4 * window + 16, _BLOCK))
        words = rng.next_words(n)
        if not arrays:
            masks, read = _read_draws(words.tolist(), m, max_set_size, count)
        elif window:
            masks, read = _parse_capped(words, m, k, count, window)
        else:  # the nonzero words, truncated to m bits
            masks = words & np.uint64((1 << m) - 1)
            kept = np.flatnonzero(masks)[:count]
            masks, read = masks[kept], int(kept[-1]) + 1 if len(kept) else 0
        rng.unread(n - read)
        floor = 1 if len(masks) else 2 * n  # a draw longer than the fetch doubles the next
        parts.append(masks if m >= 64 else np.asarray(masks, dtype))
        count -= len(masks)
    return list(itertools.chain.from_iterable(parts)) if m >= 64 else np.concatenate([np.zeros(0, dtype), *parts])


def hunt_counterexample(config: SweepConfig) -> Report:
    """Sampled version of the sweep: seeded, reproducible, same checks.

    Draws (`_draw_masks`: one word stream for all primes, parsed with array
    passes or, past 63 bits and for caps too wide for them, word by word) are
    counted a block of `_BLOCK` at a time by the exhaustive sweeps' worker
    (`_partition`), as arrays of `_masks_upto`'s dtype, ints past 63 bits.
    """
    if config.samples is None:
        raise ValueError("hunt_counterexample needs a sample count")
    config.validate()
    theorem = config.theorem
    is_pair = THEOREMS[theorem].pair
    rng = SplitMix64(config.seed)

    def blocks(m: int):
        for done in range(0, config.samples, _BLOCK):
            count = min(_BLOCK, config.samples - done)
            masks = _draw_masks(rng, m, config.max_set_size, 2 * count if is_pair else count)
            # a pair theorem draws A and B alternately
            yield (masks[::2], masks[1::2], 1) if is_pair else (masks, masks, 1)

    return _sweep(config, {"algorithm": PRNG_ALGORITHM, "seed": config.seed},
                  lambda universe: _partition(universe, theorem, blocks(universe.m), config.tight_cap))


# --------------------------------------------------------------------------
# extremal example construction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TightExample:
    """Root-of-unity family meeting |A x. B| = |A| + |B| - 3 with equality."""

    n: int
    field: PrimeField
    w: FieldElement
    A: ElementSet
    B: ElementSet
    c: FieldElement
    product_size: int
    unique_representation: tuple[int, int] | None
    degenerate: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.field.p,
            "w": self.w.value,
            "A": list(self.A.values),
            "B": list(self.B.values),
            "c": self.c.value,
            "product_size": self.product_size,
            "unique_representation": (
                list(self.unique_representation)
                if self.unique_representation is not None
                else None
            ),
            "degenerate": self.degenerate,
        }


def construct_tight_example(n: int) -> TightExample:
    """Powers of a primitive (2n-4)-th root of unity: A of size n, B of n-1.

    Finds the smallest prime p = 1 (mod 2n-4), takes w of order exactly
    2n-4, and sets A = {w^0..w^(n-1)}, B = {w^0..w^(n-2)}, target 1.  For
    n >= 4 the construction checks, and fails loudly otherwise, that
    |A| = n, |B| = n - 1, the restricted product set has exactly 2n - 4
    elements, and 1 is represented only by (w^(n-1), w^(n-3)) --- a pair
    whose (n-2)-th powers coincide.  n = 3 degenerates (w has order 2, so A
    collapses) and is returned unchecked.
    """
    if n < 3:
        raise ValueError("tight example needs n >= 3")
    d = 2 * n - 4
    f = find_prime_with_subgroup(d, start=3)
    w = primitive_root_of_unity(f, d)
    powers = [pow(w.value, k, f.p) for k in range(n)]
    A = ElementSet(f, GroupMode.MULTIPLICATIVE, powers)
    B = ElementSet(f, GroupMode.MULTIPLICATIVE, powers[: n - 1])
    c = f.one()
    products = restricted_combine(A, B)
    reps = representations(A, B, c, restricted=True)
    degenerate = n == 3
    unique_rep = None
    if not degenerate:
        a_val = pow(w.value, n - 1, f.p)
        b_val = pow(w.value, n - 3, f.p)
        if len(A) != n or len(B) != n - 1:
            raise AssertionError(f"power sets collapsed: |A|={len(A)}, |B|={len(B)}")
        if len(products) != d:
            raise AssertionError(f"|Ax.B| = {len(products)}, wanted {d}")
        if len(reps) != 1 or (reps[0].a.value, reps[0].b.value) != (a_val, b_val):
            raise AssertionError(f"1 is not uniquely represented by (w^{n-1}, w^{n-3})")
        if pow(a_val, n - 2, f.p) != pow(b_val, n - 2, f.p):
            raise AssertionError("(n-2)-th powers of the pair should coincide")
        unique_rep = (a_val, b_val)
    return TightExample(n=n, field=f, w=w, A=A, B=B, c=c, product_size=len(products),
                        unique_representation=unique_rep, degenerate=degenerate)
