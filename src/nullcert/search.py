"""Exhaustive and sampled verification sweeps over small prime fields.

The sweeps enumerate subsets of the additive group Z_p or of the
multiplicative group GF(p)* (mapped to exponents of the smallest primitive
root, which turns products into index sums), filter by each bound's
hypothesis, and check the claimed inequality.  Subsets live in integer
bitmasks over group indices (`_Universe`).  One kernel, `_eval`, evaluates
every bound by counting, with an arithmetic cyclic rotate, the pairs
that represent each element, each pair once ((a, b) for a pair bound,
{a, b} for a single-set bound), on one mask as a Python int or on a
numpy array of masks.  Every sweep counts
through one worker, `_partition`, whose blocks (amasks, bmasks, weight) are
a run of A-masks of a single-set sweep (B = A), one A with every B of a pair
sweep, or a block of a hunt's draws; it hands them to one step, `_count`,
`_BLOCK` rows at a time, as arrays while masks fit in 63 bits and one draw
at a time as ints beyond.  No array pass, `_orbits` included, holds more
than `_BLOCK` masks.  An exhaustive sweep reads one list per prime, the
masks within the size cap (`_masks_upto`), built at the cost of its length.
Report entries are the kernel rows that the sweep counted, (amask, bmask,
size, bound, targets), formatted without a second kernel pass.  The `main`
certificate is replayed only where the bound fails, the one case in which it
can raise.

An exhaustive pair sweep evaluates one canonical A per orbit of the index
maps g: k -> u*k + mu (mod m), u a unit, against every B, with its counts
weighted by the orbit size.  Every pair bound is invariant under g applied to
A and B together, so sum_B f(gA, B) = sum_B f(A, B): the counts are exact.
The first entries, in direct (amask, bmask) order, are the rows of the
canonical A's mapped onto the members of their orbits (`_first_entries`).

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

Sampling uses splitmix64 (64-bit state; the state advances by the golden
constant once per word, so word k is the mix of seed + k * golden), recorded
in the report for cross-implementation reproducibility.  A hunt reads one
word stream across all of its primes, and `_draw_masks` fixes how words
become sets.
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

    The state is a counter: word k (from 1) is a fixed mix of
    seed + k * golden (mod 2^64), so a block of words is one array
    computation."""

    _MASK = (1 << 64) - 1
    _GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_word(self) -> int:
        self.state = (self.state + self._GOLDEN) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_words(self, count: int) -> np.ndarray:
        """The next `count` words as a uint64 array (arithmetic wraps mod 2^64)."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self.state) + steps * np.uint64(self._GOLDEN)
        self.state = (self.state + count * self._GOLDEN) & self._MASK
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> 31)

    def words(self):
        """The words one at a time, fetched `_BLOCK` at a time: the state runs
        ahead of the words yielded by up to a block."""
        return itertools.chain.from_iterable(iter(lambda: self.next_words(_BLOCK).tolist(), None))


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

    def element_set(self, mask: int) -> ElementSet:
        return ElementSet(self.field, self.mode, self.mask_to_values(mask))


def _cyclic_shift(mask, a: int, m: int):
    """Rotate an m-bit mask, or an array of them, by a places (0 <= a < m)."""
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


def _scale(mask, u: int, m: int):
    """The image of an m-bit mask, or of each mask in an array, under
    k -> u*k (mod m): the bit permutation of the index maps."""
    image = mask & 0
    for k in _mask_bits(mask):
        image |= (mask >> k & 1) << (u * k % m)
    return image


def _index_map(rep: int, amask: int, m: int) -> tuple[int, int]:
    """A map (u, mu), k -> u*k + mu (mod m), that carries `rep` onto
    `amask`, a member of its orbit: mu takes the lowest bit of `amask` to
    the image of a bit of `rep`."""
    low = (amask & -amask).bit_length() - 1
    for u in _units(m):
        scaled = _scale(rep, u, m)
        for k in _mask_bits(scaled):
            if _cyclic_shift(scaled, (low - k) % m, m) == amask:
                return u, (low - k) % m
    raise AssertionError(f"{amask:#x} is not in the orbit of {rep:#x}")


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
    single-set bound.  `targets` is the mask of the c that exactly one of the
    pairs walked by `_shifts` represents (unique representability), for
    `main` only those whose pair has distinct (n-2)-th powers; for `cover` it
    is N.  `amask` is one A (an int) or an array with the A of each B;
    `bmasks` is one B or an array.  Lists of Python ints, the draws of a hunt
    whose masks pass 63 bits (the rotate shifts right by up to m bits), go
    one draw at a time."""
    if isinstance(amask, list):
        rows = [_eval(theorem, m, a, b) for a, b in zip(amask, bmasks)]
        return tuple(np.array(rows, dtype=object).reshape(-1, 3).T)
    spec = THEOREMS[theorem]
    # the elements with at least one and two representations
    once, twice = bmasks & 0, bmasks & 0
    for _, shifted in _shifts(amask, bmasks, m, spec):
        if theorem != "cover":  # `cover` reads only `once`
            twice |= once & shifted
        once |= shifted
    size, n = _popcount(once), _popcount(amask)
    bound = n + _popcount(bmasks) - spec.offset
    if theorem == "cover":
        # N: a in A and B whose square (index 2a) is missing from A x. B
        both, squared = amask & bmasks, bmasks & 0
        for a in _mask_bits(both):
            squared |= (once >> (2 * a % m) & 1) << a
        n_mask = both & ~squared
        return size, bound - _popcount(n_mask) // 2, n_mask
    targets = once & ~twice
    if theorem == "main" and (not isinstance(amask, int) or targets):
        # a pair (a, b) has equal (n-2)-th powers when a - b lies in the
        # subgroup killed by n - 2; drop the targets a + b of such pairs
        if isinstance(amask, int):
            killed = _subgroup_mask(n - 2, m)
        else:
            killed = np.array([_subgroup_mask(k - 2, m) for k in range(m + 1)], dtype=amask.dtype)[n]
        for a, shifted in _shifts(amask, bmasks, m, spec):
            targets &= ~(shifted & _cyclic_shift(killed, 2 * a % m, m))
    return size, bound, targets


def _count(stats: PrimeStats, universe: _Universe, theorem: str, amasks, bmasks,
           tight_cap: int, weight: int = 1) -> None:
    """Evaluate the rows of `amasks` and `bmasks` (`_eval`) and count them
    into `stats`, each `weight` times, recording the tight and violated rows,
    up to their caps, as (amask, bmask, size, bound, targets).  `amasks` is
    one A (an int) or the A of each row, `bmasks` the B of each row, the A
    itself for single sets.  A target is one hypothesis unit, except that a
    `cover` pair counts once when N is nonempty.  A violated `main` bound
    replays the certificate for each target: only there can it raise."""
    size, bound, targets = _eval(theorem, universe.m, amasks, bmasks)
    units = targets != 0 if theorem == "cover" else _popcount(targets)
    ok = size >= bound
    has_c = units > 0
    tight = has_c & ok & (size == bound)
    violated = has_c & ~ok
    stats.examined += weight * len(size)
    stats.hypothesis_satisfying += weight * int(units.sum())
    stats.bound_holding += weight * int(units[ok].sum())
    stats.tight_count += weight * int(tight.sum())
    stats.counterexample_count += weight * int(violated.sum())
    for rows, flags, cap in ((stats.tight, tight, tight_cap),
                             (stats.counterexamples, violated, COUNTEREXAMPLE_LIST_CAP)):
        for i in np.flatnonzero(flags)[:cap - len(rows)] if flags.any() else ():
            amask = amasks if isinstance(amasks, int) else int(amasks[i])
            rows.append((amask, int(bmasks[i]), int(size[i]), int(bound[i]), int(targets[i])))
    if not THEOREMS[theorem].replayed:
        return
    for i in np.flatnonzero(violated):
        a_set = universe.element_set(int(amasks[i]))
        for c in _mask_bits(int(targets[i])):
            try:
                symmetric_pair_certificate(a_set, universe.residues[c])
            except TheoremContradictionError:
                stats.contradictions += 1


# --------------------------------------------------------------------------
# exhaustive sweeps and report entries
# --------------------------------------------------------------------------


def _partition(universe: _Universe, theorem: str, blocks: Iterable[tuple], tight_cap: int) -> PrimeStats:
    """Count each block (amasks, bmasks, weight) of `blocks`, `_BLOCK` rows
    at a time (`_count`); returns partial stats.  A block is a run of A-masks
    of a single-set sweep, as both A and B, one canonical A with every B of a
    pair sweep, or a block of a hunt's draws."""
    stats = PrimeStats(universe.field.p)
    for amasks, bmasks, weight in blocks:
        for lo in range(0, len(bmasks), _BLOCK):
            run = amasks if isinstance(amasks, int) else amasks[lo:lo + _BLOCK]
            _count(stats, universe, theorem, run, bmasks[lo:lo + _BLOCK], tight_cap, weight)
    return stats


def _first_entries(universe: _Universe, theorem: str, stats: PrimeStats, masks: np.ndarray,
                   canon: np.ndarray, tight_cap: int) -> None:
    """Replace the rows of canonical A's in merged pair stats by the first
    rows in direct (amask, bmask) order, min(cap, count) per list, without a
    kernel pass.

    A member gA of an orbit has the rows of its canonical A mapped by g
    (`_index_map`): the same size and bound, gB, and the targets mapped as
    A o B is (k -> u*k + 2mu; N by g itself); sorted by B they are its rows
    in direct order.  The merge lists the first cap rows of canonical A's,
    ascending, so every listed A has all of its rows but maybe the last,
    whose own rows fill the list before any other member of its orbit, all
    larger, comes up.  An A whose orbit has no listed row comes after cap
    rows in direct order, as every member of an orbit has as many rows as
    its canonical A, the least."""
    m = universe.m
    for name, cap, count in (("tight", tight_cap, stats.tight_count),
                             ("counterexamples", COUNTEREXAMPLE_LIST_CAP, stats.counterexample_count)):
        listed = {rep: list(rows) for rep, rows in itertools.groupby(getattr(stats, name), lambda row: row[0])}
        want, found = min(cap, count), []
        members = np.isin(canon, list(listed))
        for amask, rep in zip(masks[members].tolist(), canon[members].tolist()):
            if len(found) == want:
                break
            rows = listed[rep]
            if amask != rep:
                u, mu = _index_map(rep, amask, m)
                nu = mu if theorem == "cover" else 2 * mu % m
                rows = sorted((amask, _cyclic_shift(_scale(bmask, u, m), mu, m), size, bound,
                               _cyclic_shift(_scale(targets, u, m), nu, m))
                              for _, bmask, size, bound, targets in rows)
            found += rows[:want - len(found)]
        setattr(stats, name, found)


def _runs(n: int, parts: int) -> list[tuple[int, int]]:
    """`parts` contiguous runs [lo, hi) of near-equal length covering [0, n)."""
    return [(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


def _materialize(universe: _Universe, theorem: str, stats: PrimeStats, attach: bool) -> None:
    """Format the kernel rows of `stats` as report entries; with `attach`,
    each tight entry carries the certificate for its first target."""
    spec = THEOREMS[theorem]
    for name, builder in (("tight", spec.build if attach else None), ("counterexamples", None)):
        entries = []
        for amask, bmask, size, bound, target in getattr(stats, name):
            entry = {"A": universe.mask_to_values(amask), "size": size, "bound": bound}
            if spec.pair:
                entry["B"] = universe.mask_to_values(bmask)
            entry["N" if theorem == "cover" else "c"] = universe.mask_to_values(target)
            if builder is not None:
                A, B = universe.element_set(amask), universe.element_set(bmask)
                c = universe.residues[_mask_bits(target)[0]] if target else None
                entry["certificate"] = builder(A, B, c).to_json_dict()
            entries.append(entry)
        setattr(stats, name, entries)


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
        masks = _masks_upto(m, max_size)
        if is_pair:
            canon, reps, weights = _orbits(m, masks)
            _check_budget(p, len(reps) * len(masks), "checks", config.budget)
            blocks = [(rep, masks, weight) for rep, weight in zip(reps.tolist(), weights.tolist())]
        else:
            blocks = [(block, block, 1) for block in np.split(masks, range(_BLOCK, len(masks), _BLOCK))]
        tasks = [(universe, theorem, blocks[lo:hi], config.tight_cap)
                 for lo, hi in _runs(len(blocks), min(config.partitions, len(blocks)))]
        stats = PrimeStats.merge(p, starmap(_partition, tasks), config.tight_cap)
        if is_pair:
            _first_entries(universe, theorem, stats, masks, canon, config.tight_cap)
        return stats

    with multiprocessing.get_context("fork").Pool(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        starmap = itertools.starmap if pool is None else pool.starmap
        return _sweep(config, None, prime_stats)


def _draw_masks(words, m: int, max_set_size: int | None, count: int) -> list[int]:
    """`count` random nonempty subset masks from the word stream `words`
    (`SplitMix64.words`); documented draw order for replay.

    With a size cap: draw size = 1 + (word mod min(cap, m)), then draw that
    many distinct indices as word mod m, redrawing collisions.  Without a
    cap: draw ceil(m / 64) words, the k-th filling bits 64k and up, truncate
    to m bits, redraw an empty mask.
    """
    full = (1 << m) - 1
    masks = []
    for _ in range(count):
        mask = 0
        if max_set_size is not None:
            size = 1 + next(words) % min(max_set_size, m)
            while mask.bit_count() < size:
                mask |= 1 << next(words) % m
        else:
            while not mask:
                for chunk in range((m + 63) // 64):
                    mask |= next(words) << (64 * chunk)
                mask &= full
        masks.append(mask)
    return masks


def hunt_counterexample(config: SweepConfig) -> Report:
    """Sampled version of the sweep: seeded, reproducible, same checks.

    Draws are counted a block of `_BLOCK` at a time by the exhaustive
    sweeps' worker (`_partition`), as arrays of `_masks_upto`'s dtype while
    masks fit in 63 bits and as lists of Python ints beyond.
    """
    if config.samples is None:
        raise ValueError("hunt_counterexample needs a sample count")
    config.validate()
    theorem = config.theorem
    is_pair = THEOREMS[theorem].pair
    words = SplitMix64(config.seed).words()

    def blocks(m: int):
        for done in range(0, config.samples, _BLOCK):
            count = min(_BLOCK, config.samples - done)
            masks = _draw_masks(words, m, config.max_set_size, 2 * count if is_pair else count)
            if m < 64:
                masks = np.array(masks, dtype=np.uint32 if m <= 32 else np.uint64)
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
