import dataclasses
import itertools
import math
import multiprocessing
import sys
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nullcert import search
from nullcert.certify import THEOREMS, TheoremContradictionError
from nullcert.search import (
    ALL_THEOREMS,
    DEFAULT_BUDGET,
    PrimeStats,
    Report,
    SplitMix64,
    SweepConfig,
    construct_tight_example,
    exhaustive_verify,
    hunt_counterexample,
)
from nullcert.field import PrimeField
from nullcert.sets import ElementSet, GroupMode

from conftest import (
    OFFSETS,
    count_instance_oracle,
    group_elements_oracle,
    instance_oracle,
    mask_values_oracle,
    sample_mask_oracle,
)


# ------------------------------------------------- slow reference sweeps

_PAIR = ("ks", "additive", "mult", "cover")
_PAIR_VARIANTS = [
    ("ks", GroupMode.ADDITIVE),
    ("ks", GroupMode.MULTIPLICATIVE),
    ("additive", None),
    ("mult", None),
    ("cover", None),
]


def _mode_tag(theorem, mode=None):
    mode = THEOREMS[theorem].mode or mode
    return "add" if mode is GroupMode.ADDITIVE else "mult"


def _reference_count(stats, theorem, mode_tag, p, elements, amask, bmask, tight_cap):
    """Count one instance into `stats` with the set oracles alone, recording
    its report entry; a violated `main` bound replays the certificate for
    each target, as the sweeps do."""
    A = mask_values_oracle(elements, amask)
    B = None if bmask is None else mask_values_oracle(elements, bmask)
    instance = size, bound, targets = instance_oracle(theorem, mode_tag, p, A, B)
    entry = {"A": A, "size": size, "bound": bound, "N" if theorem == "cover" else "c": targets}
    if B is not None:
        entry["B"] = B
    count_instance_oracle(stats, theorem, instance, entry, tight_cap)
    if theorem == "main" and targets and size < bound:
        a_set = ElementSet(PrimeField(p), GroupMode.MULTIPLICATIVE, A)
        for c in targets:
            try:
                search.symmetric_pair_certificate(a_set, c)
            except TheoremContradictionError:
                stats.contradictions += 1


def _slow_sweep(theorem, p, mode_tag, max_set_size=None):
    """Independent re-count of an exhaustive sweep with the set oracles, over
    the sets of at most `max_set_size` elements."""
    elements = group_elements_oracle(mode_tag, p)
    masks = [
        mask for mask in range(1, 1 << len(elements))
        if max_set_size is None or bin(mask).count("1") <= max_set_size
    ]
    stats = PrimeStats(p)
    for amask in masks:
        for bmask in masks if theorem in _PAIR else [None]:
            _reference_count(stats, theorem, mode_tag, p, elements, amask, bmask, 0)
    return (
        stats.examined,
        stats.hypothesis_satisfying,
        stats.bound_holding,
        stats.tight_count,
        stats.counterexample_count,
    )


@pytest.mark.parametrize("theorem,mode", _PAIR_VARIANTS)
@pytest.mark.parametrize("p", [3, 5])
def test_pair_sweep_matches_slow_oracle(theorem, mode, p):
    config = SweepConfig(theorem=theorem, primes=(p,), group_mode=mode)
    report = exhaustive_verify(config)
    stats = report.stats_for(p)
    expected = _slow_sweep(theorem, p, _mode_tag(theorem, mode))
    got = (
        stats.examined,
        stats.hypothesis_satisfying,
        stats.bound_holding,
        stats.tight_count,
        stats.counterexample_count,
    )
    assert got == expected
    assert stats.counterexample_count == 0


@pytest.mark.parametrize("theorem", ["main", "corollary-add", "corollary-mult"])
@pytest.mark.parametrize("p", [5, 7, 11])
def test_single_sweep_matches_slow_oracle(theorem, p):
    mode_tag = _mode_tag(theorem)
    m = len(group_elements_oracle(mode_tag, p))
    for size in dict.fromkeys((None, 1, 2, 3, m // 2)):
        expected = _slow_sweep(theorem, p, mode_tag, size)
        for partitions in (1, 3):
            config = SweepConfig(theorem=theorem, primes=(p,), max_set_size=size, partitions=partitions)
            stats = exhaustive_verify(config).stats_for(p)
            got = (
                stats.examined,
                stats.hypothesis_satisfying,
                stats.bound_holding,
                stats.tight_count,
                stats.counterexample_count,
            )
            assert got == expected, (size, partitions)
            assert stats.contradictions == 0


# ------------------------------------------------- mask kernels vs the oracle


def _oracle_form(elements, size, bound, targets):
    return int(size), int(bound), mask_values_oracle(elements, int(targets))


@pytest.mark.parametrize("theorem", ["main", "corollary-add", "corollary-mult"])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_single_kernel_matches_reference_per_mask(theorem, p):
    mode_tag = _mode_tag(theorem)
    elements = group_elements_oracle(mode_tag, p)
    m = len(elements)
    amasks = np.arange(1, 1 << m, dtype=np.uint32)
    size, bound, targets = search._eval(theorem, m, amasks, amasks)
    for i, amask in enumerate(range(1, 1 << m)):
        expected = instance_oracle(theorem, mode_tag, p, mask_values_oracle(elements, amask))
        assert _oracle_form(elements, size[i], bound[i], targets[i]) == expected, amask


_PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@st.composite
def _cases(draw, theorems):
    theorem = draw(st.sampled_from(theorems))
    mode_tag = _mode_tag(theorem, draw(st.sampled_from(list(GroupMode))))
    p = draw(st.sampled_from(_PRIMES_TO_31))
    elements = group_elements_oracle(mode_tag, p)
    masks = st.integers(1, (1 << len(elements)) - 1)
    return theorem, mode_tag, p, elements, draw(masks), draw(st.lists(masks, min_size=1, max_size=8))


@settings(max_examples=400)
@given(_cases(list(ALL_THEOREMS)))
def test_pair_kernel_matches_reference_and_oracles(case):
    # rows (A, B), with B = A for a single-set bound, as the sweeps pass
    # them: uint32 arrays (exhaustive sweeps: one int A against an array of
    # B for a pair bound, one array as A and B for a single-set bound),
    # arrays of A and of B in both dtypes (hunts: uint32 up to 32 bits,
    # uint64 up to 63), lists of ints (hunts past 63 bits) and one row of
    # ints (report entries)
    theorem, mode_tag, p, elements, amask, bmasks = case
    m = len(elements)
    if THEOREMS[theorem].pair:
        amasks = [amask] * len(bmasks)
        arrays = search._eval(theorem, m, amask, np.array(bmasks, dtype=np.uint32))
    else:
        amasks = bmasks = [amask] + bmasks
        block = np.array(amasks, dtype=np.uint32)
        arrays = search._eval(theorem, m, block, block)
    ints = search._eval(theorem, m, amasks, bmasks)
    hunts = [search._eval(theorem, m, np.array(amasks, dtype=dtype), np.array(bmasks, dtype=dtype))
             for dtype in (np.uint32, np.uint64)]
    for i, (a, b) in enumerate(zip(amasks, bmasks)):
        B = mask_values_oracle(elements, b) if THEOREMS[theorem].pair else None
        expected = instance_oracle(theorem, mode_tag, p, mask_values_oracle(elements, a), B)
        one = search._eval(theorem, m, a, b)
        assert all(type(v) is int for v in one)
        assert _oracle_form(elements, *one) == expected
        for rows in (arrays, ints, *hunts):
            assert _oracle_form(elements, *(column[i] for column in rows)) == expected


def _walked(m, spec, amask, bmask):
    """The pairs that `_shifts` walks, per row: a rotation keeps popcount."""
    return sum(search._popcount(shifted) for _, shifted in search._shifts(amask, bmask, m, spec))


@settings(max_examples=300)
@given(st.sampled_from(list(ALL_THEOREMS)), st.integers(1, 100).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.tuples(st.integers(0, (1 << m) - 1), st.integers(0, (1 << m) - 1)), min_size=1, max_size=8),
)))
def test_shifts_walk_the_pairs_each_bound_counts(theorem, case):
    # a restricted pair bound walks (a, b) with b != a, `ks` every (a, b), a
    # single-set bound (B = A) each {a, b} with a != b once: as ints, and
    # row by row as uint32/uint64 arrays while masks fit in 63 bits
    spec = THEOREMS[theorem]
    m, rows = case
    if not spec.pair:
        rows = [(a, a) for a, _ in rows]
    for amask, bmask in rows:
        n, k = amask.bit_count(), bmask.bit_count()
        if not spec.pair:
            expected = math.comb(n, 2)
        else:
            expected = n * k - spec.restricted * (amask & bmask).bit_count()
        assert _walked(m, spec, amask, bmask) == expected
    for dtype in (np.uint32, np.uint64):
        if m <= (32 if dtype is np.uint32 else 63):
            amasks, bmasks = (np.array(column, dtype=dtype) for column in zip(*rows))
            walked = _walked(m, spec, amasks, bmasks) + np.zeros(len(rows), dtype=np.int64)
            assert walked.tolist() == [_walked(m, spec, a, b) for a, b in rows]


def test_single_set_bounds_are_restricted():
    # `_shifts` walks each {a, b} with a != b once for a single-set bound,
    # so it has no walk for an unrestricted one
    assert all(spec.restricted for spec in THEOREMS.values() if not spec.pair)


def _image(mask, u, mu, m):
    """The mask of {u*k + mu (mod m) : k in mask}."""
    return sum(1 << (u * k + mu) % m for k in range(m) if mask >> k & 1)


@settings(max_examples=200)
@given(st.integers(1, 63).flatmap(lambda m: st.tuples(
    st.just(m),
    st.sampled_from([u for u in range(1, m + 1) if math.gcd(u, m) == 1]),
    st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=20),
)))
def test_scale_on_an_array_is_scale_on_each_mask(case):
    # `_orbits` scales runs of the mask list, `_first_entries` single ints
    m, u, masks = case
    array = np.array(masks, dtype=np.uint32 if m <= 32 else np.uint64)
    scaled = search._scale(array, u, m)
    assert scaled.dtype == array.dtype
    assert scaled.tolist() == [search._scale(mask, u, m) for mask in masks]
    assert scaled.tolist() == [_image(mask, u, 0, m) for mask in masks]


@settings(max_examples=300)
@given(_cases(list(ALL_THEOREMS)), st.data())
def test_kernel_is_symmetric_and_affine_invariant(case, data):
    # what the orbit-reduced pair sweep rests on: a pair bound is symmetric
    # in A and B, and every bound is invariant under g: k -> u*k + mu applied
    # to A and B together, which maps a c-target k to u*k + 2*mu and an
    # element of N to u*k + mu
    theorem, _, _, elements, amask, bmasks = case
    m = len(elements)
    bmask = bmasks[0] if THEOREMS[theorem].pair else amask
    size, bound, targets = search._eval(theorem, m, amask, bmask)
    if THEOREMS[theorem].pair:
        assert search._eval(theorem, m, bmask, amask) == (size, bound, targets)
    u = data.draw(st.sampled_from([u for u in range(1, m + 1) if math.gcd(u, m) == 1]))
    mu = data.draw(st.integers(0, m - 1))
    moved = _image(targets, u, mu if theorem == "cover" else 2 * mu, m)
    assert search._eval(theorem, m, _image(amask, u, mu, m), _image(bmask, u, mu, m)) == (size, bound, moved)


@pytest.fixture
def weakened_main(monkeypatch):
    # no real theorem fails, so weaken `main` by one and let every other
    # replay "raise" to exercise the violation and contradiction paths
    monkeypatch.setitem(THEOREMS, "main", dataclasses.replace(THEOREMS["main"], offset=2))
    monkeypatch.setitem(OFFSETS, "main", 2)
    monkeypatch.setattr(search, "COUNTEREXAMPLE_LIST_CAP", 7)
    real_certificate = search.symmetric_pair_certificate

    def flaky_certificate(A, c):
        if (len(A) + c) % 2:
            raise TheoremContradictionError("injected")
        return real_certificate(A, c)

    monkeypatch.setattr(search, "symmetric_pair_certificate", flaky_certificate)


@pytest.mark.parametrize("partitions", [1, 3])
def test_counterexample_path_matches_reference_loop(weakened_main, partitions):
    p = 11
    report = exhaustive_verify(SweepConfig(theorem="main", primes=(p,), partitions=partitions))
    elements = group_elements_oracle("mult", p)
    expected = PrimeStats(p)
    for amask in range(1, 1 << len(elements)):
        _reference_count(expected, "main", "mult", p, elements, amask, None, search.DEFAULT_TIGHT_CAP)
    assert report.stats_for(p).to_json_dict() == expected.to_json_dict()
    assert len(expected.counterexamples) == 7
    assert expected.counterexample_count > 7
    assert 0 < expected.contradictions


@pytest.mark.parametrize("theorem", ["main", "corollary-add", "additive", "mult", "cover", "ks"])
def test_partition_and_block_boundaries_keep_report(monkeypatch, theorem):
    # with `_BLOCK` = 100 every array pass at p = 11 spans several runs: the
    # single-set blocks, the orbit search and every B-list of a pair sweep
    # (`ks` in its multiplicative mode)
    mode = GroupMode.MULTIPLICATIVE if theorem == "ks" else None

    def run(partitions, jobs=1):
        config = SweepConfig(theorem=theorem, primes=(11,), group_mode=mode, partitions=partitions, tight_cap=5)
        data = exhaustive_verify(config, jobs=jobs).to_json_dict()
        data["config"].pop("partitions")
        return data

    reference = run(1)
    assert len(reference["per_prime"][0]["tight"]) == 5
    monkeypatch.setattr(search, "_BLOCK", 100)
    rows = []
    count = search._count
    monkeypatch.setattr(search, "_count", lambda *args: rows.append(len(args[4])) or count(*args))
    assert run(1) == reference
    assert max(rows) == 100
    assert run(3) == reference
    assert run(3, jobs=2) == reference
    # more partitions than blocks (21 at p = 11 for corollary-add): one
    # partition per block, however many are asked for
    assert run(25) == reference
    assert run(25, jobs=2) == reference
    calls = []
    partition = search._partition
    monkeypatch.setattr(search, "_partition", lambda *args: calls.append(args) or partition(*args))
    assert run(1000) == reference
    m = 11 if (THEOREMS[theorem].mode or mode) is GroupMode.ADDITIVE else 10
    if THEOREMS[theorem].pair:
        # a pair sweep's blocks are its canonical A's
        assert len(calls) <= len(search._orbits(m, search._masks_upto(m, None))[1])
    else:
        assert len(calls) <= -(-((1 << m) - 1) // 100)


# ---------------------------------- orbit-reduced pair sweeps vs the direct sweep

def _direct_pair_stats(theorem, mode_tag, p, max_set_size, tight_cap):
    """The direct pair sweep: `_eval` on every A against every B within
    the size cap, in (amask, bmask) order, counted per A, with the first
    entries built as `_reference_count` builds them."""
    elements = group_elements_oracle(mode_tag, p)
    masks = [
        mask for mask in range(1, 1 << len(elements))
        if max_set_size is None or bin(mask).count("1") <= max_set_size
    ]
    b_all = np.array(masks, dtype=np.uint32)
    stats = PrimeStats(p)
    for amask in masks:
        size, bound, targets = search._eval(theorem, len(elements), amask, b_all)
        units = np.minimum(targets, 1) if theorem == "cover" else np.bitwise_count(targets)
        units = units.astype(np.int64)
        tight, violated = (units > 0) & (size == bound), (units > 0) & (size < bound)
        stats.examined += len(masks)
        stats.hypothesis_satisfying += int(units.sum())
        stats.bound_holding += int(units[size >= bound].sum())
        stats.tight_count += int(tight.sum())
        stats.counterexample_count += int(violated.sum())
        for entries, flags, cap in (
            (stats.tight, tight, tight_cap),
            (stats.counterexamples, violated, search.COUNTEREXAMPLE_LIST_CAP),
        ):
            for i in np.flatnonzero(flags)[: max(cap - len(entries), 0)]:
                entries.append({
                    "A": mask_values_oracle(elements, amask),
                    "B": mask_values_oracle(elements, masks[i]),
                    "size": int(size[i]),
                    "bound": int(bound[i]),
                    "N" if theorem == "cover" else "c": mask_values_oracle(elements, int(targets[i])),
                })
    return stats


def _assert_matches_direct(config, direct, jobs=1):
    """The orbit sweep's report equals the direct sweep's, capped to
    `config`, in JSON and CSV."""
    (p,) = config.primes
    expected = PrimeStats(p, **{name: getattr(direct, name) for name in search.COUNTERS})
    expected.tight = [dict(entry) for entry in direct.tight[: config.tight_cap]]
    expected.counterexamples = [dict(entry) for entry in direct.counterexamples]
    if config.attach_certificates:
        mode_tag = _mode_tag(config.theorem, config.group_mode)
        _attach_reference_certificates(config, group_elements_oracle(mode_tag, p), expected)
    got = exhaustive_verify(config, jobs=jobs)
    want = Report(config.echo(), None, [expected])
    assert got.to_json() == want.to_json()
    assert got.to_csv() == want.to_csv()


@pytest.mark.parametrize("theorem,mode", _PAIR_VARIANTS)
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_orbit_sweep_matches_direct_sweep(theorem, mode, p):
    mode_tag = _mode_tag(theorem, mode)
    m = len(group_elements_oracle(mode_tag, p))
    for max_set_size in dict.fromkeys((None, 1, 2, 3, max(m // 2, 1))):
        # a cap above tight_count makes the rebuild find every tight entry;
        # the sweeps at p = 11 have up to 185k of them, 7.4k within size 3
        every = p <= 7 or (max_set_size or m) <= 3
        direct = _direct_pair_stats(
            theorem, mode_tag, p, max_set_size, sys.maxsize if every else search.DEFAULT_TIGHT_CAP
        )
        runs = [(1, 1, search.DEFAULT_TIGHT_CAP, False), (3, 1, 0, False), (3, 2, 5, p <= 7)]
        if every:
            runs.append((1, 1, direct.tight_count + 1, False))
        for partitions, jobs, tight_cap, attach in runs:
            config = SweepConfig(
                theorem=theorem, primes=(p,), group_mode=mode, max_set_size=max_set_size,
                partitions=partitions, tight_cap=tight_cap, attach_certificates=attach,
            )
            _assert_matches_direct(config, direct, jobs)


@pytest.fixture
def weakened_additive(monkeypatch):
    # no real bound fails, so lower `additive` by one: its tight pairs become
    # violations, more than the shortened counterexample list holds
    monkeypatch.setitem(THEOREMS, "additive", dataclasses.replace(THEOREMS["additive"], offset=1))
    monkeypatch.setitem(OFFSETS, "additive", 1)
    monkeypatch.setattr(search, "COUNTEREXAMPLE_LIST_CAP", 7)


@pytest.mark.parametrize("partitions", [1, 3])
@pytest.mark.parametrize("p", [5, 7, 11])
def test_orbit_sweep_counterexamples_match_direct_sweep(weakened_additive, partitions, p):
    config = SweepConfig(theorem="additive", primes=(p,), partitions=partitions, tight_cap=5)
    direct = _direct_pair_stats("additive", "add", p, None, config.tight_cap)
    _assert_matches_direct(config, direct)
    assert len(direct.counterexamples) == 7
    assert direct.counterexample_count > 7


def _first_rows_member_by_member(universe, theorem, stats, masks, canon, tight_cap):
    """The first rows of merged pair stats from a kernel pass on each member
    of the listed orbits, ascending, until both lists are full."""
    listed = {row[0] for row in stats.tight + stats.counterexamples}
    wanted = min(tight_cap, stats.tight_count), min(search.COUNTEREXAMPLE_LIST_CAP, stats.counterexample_count)
    found = PrimeStats(stats.p)
    for amask, rep in zip(masks.tolist(), canon.tolist()):
        if len(found.tight) >= wanted[0] and len(found.counterexamples) >= wanted[1]:
            break
        if rep in listed:
            search._count(found, universe, theorem, amask, masks, tight_cap)
    return found.tight[:wanted[0]], found.counterexamples[:wanted[1]]


def _first_entries_without_kernel(config):
    """Sweep `config` with `_count` refused inside `_first_entries`, whose
    rows must equal the member-by-member ones; the list lengths per prime."""
    first_entries, lengths = search._first_entries, []

    def refuse(*args):
        raise AssertionError("_first_entries ran a kernel pass")

    def checked(universe, theorem, stats, masks, canon, tight_cap):
        expected = _first_rows_member_by_member(universe, theorem, stats, masks, canon, tight_cap)
        with mock.patch.object(search, "_count", refuse):
            first_entries(universe, theorem, stats, masks, canon, tight_cap)
        assert (stats.tight, stats.counterexamples) == expected
        lengths.append((len(stats.tight), len(stats.counterexamples)))

    with mock.patch.object(search, "_first_entries", checked):
        exhaustive_verify(config)
    return lengths


@pytest.mark.parametrize("p,partitions", [(11, 1), (13, 1), (13, 3)])
def test_first_entries_take_no_kernel_pass(p, partitions):
    # sparse `mult` lists, which a kernel pass per member filled in 420
    # passes at p = 13; caps 1 and 3 cut the last listed A's rows
    config = SweepConfig(theorem="mult", primes=(p,), partitions=partitions)
    tight_count = exhaustive_verify(config).stats_for(p).tight_count
    for tight_cap in (search.DEFAULT_TIGHT_CAP, 0, 1, 3, tight_count + 1):
        lengths = _first_entries_without_kernel(dataclasses.replace(config, tight_cap=tight_cap))
        assert lengths == [(min(tight_cap, tight_count), 0)]


@pytest.mark.parametrize("partitions", [1, 3])
@pytest.mark.parametrize("p", [7, 11])
def test_first_counterexamples_take_no_kernel_pass(weakened_additive, partitions, p):
    config = SweepConfig(theorem="additive", primes=(p,), partitions=partitions, tight_cap=5)
    assert _first_entries_without_kernel(config) == [(5, 7)]


@pytest.mark.parametrize("m", range(1, 13))
def test_masks_upto_matches_brute_force(m):
    every = list(range(1, 1 << m))
    for k in [None] + list(range(1, m + 2)):
        masks = search._masks_upto(m, k)
        expected = [mask for mask in every if k is None or bin(mask).count("1") <= k]
        assert masks.dtype == np.uint32
        assert masks.tolist() == expected, k
        assert len(masks) == sum(math.comb(m, j) for j in range(1, min(k or m, m) + 1))


@pytest.mark.parametrize("m,dtype", [(32, np.uint32), (33, np.uint64), (60, np.uint64), (63, np.uint64)])
def test_masks_upto_past_31_bits(m, dtype):
    for k in (1, 2, 3):
        masks = search._masks_upto(m, k)
        assert masks.dtype == dtype
        assert len(masks) == sum(math.comb(m, j) for j in range(1, k + 1))
        assert int(masks[-1]) == ((1 << k) - 1) << (m - k)
        assert bool(np.all(masks[1:] > masks[:-1]))


@pytest.mark.parametrize("m", range(1, 19))
def test_orbit_weights_count_every_mask(m):
    # every m up to 18: m = p (additive) and m = p - 1 (multiplicative) for
    # each p <= 19 among them
    for k in (None, 2):
        masks = search._masks_upto(m, k)
        _, _, weights = search._orbits(m, masks)
        assert int(weights.sum()) == len(masks)


# from m = 9 on, a search that scaled the partly minimized canon instead of
# the masks would compound the units and miss some images
@pytest.mark.parametrize("m", range(1, 12))
def test_orbits_match_brute_force(monkeypatch, m):
    units = [u for u in range(m) if math.gcd(u, m) == 1]
    orbit_of = {}
    for mask in range(1, 1 << m):
        bits = [k for k in range(m) if mask >> k & 1]
        orbit_of[mask] = {sum(1 << (u * k + mu) % m for k in bits) for u in units for mu in range(m)}
    # a block of 7 masks splits the lists past 7 masks into runs
    for k, block in itertools.product((None, 1, 2, m // 2), (7, search._BLOCK)):
        monkeypatch.setattr(search, "_BLOCK", block)
        masks = search._masks_upto(m, k)
        canon, reps, weights = search._orbits(m, masks)
        # canon is aligned with the list: canon[i] is the least image of masks[i]
        assert canon.tolist() == [min(orbit_of[mask]) for mask in masks.tolist()], k
        expected = {min(orbit_of[mask]): len(orbit_of[mask]) for mask in masks.tolist()}
        assert reps.tolist() == sorted(expected)
        assert weights.tolist() == [expected[rep] for rep in sorted(expected)]


@pytest.mark.parametrize("p", [23, 29, 31])
def test_corollary_add_tight_sets_per_size_follow_closed_forms(p):
    # beyond the reach of the direct sweep: the tight sets of each size n,
    # tight(n) - tight(n - 1) of the sweeps capped at n, are all 2-sets and
    # all 3-sets, p(p - 1)(p - 3)/8 sets at n = 4, and from n = 5 to (p + 1)/2
    # exactly the p(p - 1)/2 arithmetic progressions of length n
    tight = [0]
    for n in range(1, 7):
        report = exhaustive_verify(SweepConfig(theorem="corollary-add", primes=(p,), max_set_size=n))
        assert report.ok()
        tight.append(report.stats_for(p).tight_count)
    progressions = p * (p - 1) // 2
    expected = {2: math.comb(p, 2), 3: math.comb(p, 3), 4: p * (p - 1) * (p - 3) // 8, 5: progressions, 6: progressions}
    assert {n: tight[n] - tight[n - 1] for n in range(2, 7)} == expected


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_ks_add_tight_count_follows_vosper(p):
    # With |A|, |B| <= c = (p - 1)/2, |A + B| <= p - 2.  Then, by Vosper's
    # theorem, |A + B| = |A| + |B| - 1 with 2 <= |A|, |B| only for arithmetic
    # progressions with one common difference, whose end sums are unique; a
    # singleton A or B makes every sum unique.
    c = (p - 1) // 2
    S = sum(math.comb(p, k) for k in range(1, c + 1))
    report = exhaustive_verify(
        SweepConfig(theorem="ks", primes=(p,), group_mode=GroupMode.ADDITIVE, max_set_size=c)
    )
    assert report.ok()
    assert report.stats_for(p).tight_count == 2 * p * S - p * p + c * p * p * (c - 1) ** 2


# ------------------------------------------ sampled hunts vs the reference


@settings(max_examples=150)
@given(
    seed=st.integers(0, (1 << 64) - 1),
    m=st.one_of(st.sampled_from([63, 64, 65]), st.integers(1, 130)),
    cap=st.none() | st.integers(1, 133),
    count=st.integers(0, 40),
    block=st.sampled_from([1, 2, 3, 7, search._BLOCK]),
)
def test_draw_masks_match_sequential_sampler(seed, m, cap, count, block):
    cap = None if cap is None else min(cap, m + 3)
    oracle = SplitMix64(seed)
    expected = [sample_mask_oracle(oracle, m, cap) for _ in range(count)]
    # a small word block makes every draw cross a buffer boundary
    with mock.patch.object(search, "_BLOCK", block):
        words = SplitMix64(seed).words()
        assert search._draw_masks(words, m, cap, count) == expected
        # the stream goes on with the word a word-by-word draw reads next
        assert next(words) == oracle.next_word()


def _reference_hunt(config):
    """The per-draw loop: sequential sampler, set oracles and counter."""
    pair = THEOREMS[config.theorem].pair
    mode_tag = _mode_tag(config.theorem, config.group_mode)
    rng = SplitMix64(config.seed)
    per_prime = []
    for p in config.primes:
        elements = group_elements_oracle(mode_tag, p)
        stats = PrimeStats(p)
        for _ in range(config.samples):
            amask = sample_mask_oracle(rng, len(elements), config.max_set_size)
            bmask = sample_mask_oracle(rng, len(elements), config.max_set_size) if pair else None
            _reference_count(
                stats, config.theorem, mode_tag, p, elements, amask, bmask, config.tight_cap
            )
        if config.attach_certificates:
            _attach_reference_certificates(config, elements, stats)
        per_prime.append(stats)
    return Report(config.echo(), {"algorithm": "splitmix64", "seed": config.seed}, per_prime)


def _attach_reference_certificates(config, elements, stats):
    """Give each tight entry the certificate for its first target in
    mask-bit order, as a sweep with `attach_certificates` does."""
    build = THEOREMS[config.theorem].build
    if build is None:
        return
    mode = config.resolved_mode()
    field = PrimeField(stats.p)
    for entry in stats.tight:
        A = ElementSet(field, mode, entry["A"])
        B = ElementSet(field, mode, entry["B"]) if "B" in entry else A
        targets = entry.get("c", [])
        c = min(targets, key=elements.index) if targets else None
        entry["certificate"] = build(A, B, c).to_json_dict()


def _assert_same_report(config):
    got, expected = hunt_counterexample(config), _reference_hunt(config)
    assert got.to_json() == expected.to_json()
    assert got.to_csv() == expected.to_csv()


# 61 and 67 sit on either side of the 63-bit limit of the array kernels
_HUNT_PRIMES = [(2,), (3,), (7,), (13,), (31,), (61,), (67,), (101,), (7, 11, 13)]


@pytest.mark.parametrize(
    "theorem,mode",
    [("ks", GroupMode.ADDITIVE), ("ks", GroupMode.MULTIPLICATIVE)]
    + [(tag, None) for tag in ALL_THEOREMS if tag != "ks"],
)
def test_hunt_report_matches_reference_loop(monkeypatch, theorem, mode):
    monkeypatch.setattr(search, "_BLOCK", 100)
    for seed, primes in enumerate(_HUNT_PRIMES):
        for cap in (None, 6):
            config = SweepConfig(
                theorem=theorem, primes=primes, group_mode=mode, samples=150, seed=seed,
                max_set_size=cap, tight_cap=5, attach_certificates=cap is not None,
            )
            _assert_same_report(config)


@pytest.mark.parametrize("theorem", ["cover", "main"])
def test_hunts_count_masks_of_the_mask_list_dtype(monkeypatch, theorem):
    # one mask convention (`_masks_upto`): uint32 up to 32 bits, uint64 up
    # to 63, Python ints beyond
    kinds = []
    count = search._count
    monkeypatch.setattr(search, "_count", lambda *args: kinds.append(getattr(args[4], "dtype", list)) or count(*args))
    hunt_counterexample(SweepConfig(theorem=theorem, primes=(31, 61, 67), samples=50, seed=3))
    assert kinds == [np.uint32, np.uint64, list]


@pytest.mark.parametrize("p", [11, 67])
def test_hunt_counterexample_path_matches_reference_loop(monkeypatch, weakened_main, p):
    monkeypatch.setattr(search, "_BLOCK", 100)
    config = SweepConfig(theorem="main", primes=(p,), samples=400, seed=5, max_set_size=5)
    _assert_same_report(config)
    stats = hunt_counterexample(config).stats_for(p)
    assert len(stats.counterexamples) == 7
    assert 0 < stats.contradictions


# ------------------------------------------ recorded rows are kernel rows


def _recorded_rows(config):
    """Run the sweep of `config`; return the tight and violated rows it hands
    to `_materialize`, per prime, with the index count m of each prime."""
    rows = {}
    materialize = search._materialize

    def recording(universe, theorem, stats, attach):
        rows[stats.p] = universe.m, stats.tight + stats.counterexamples
        materialize(universe, theorem, stats, attach)

    with mock.patch.object(search, "_materialize", recording):
        exhaustive_verify(config)
    return rows


def _assert_rows_are_fresh_kernel_rows(config):
    theorem = config.theorem
    for m, rows in _recorded_rows(config).values():
        for amask, bmask, *result in rows:
            fresh = search._eval(theorem, m, amask, bmask)
            assert tuple(result) == fresh, (amask, bmask)
            assert all(type(v) is int for v in (amask, *result))


def _weakened(theorem, weaken):
    # no real bound fails, so raise it by `weaken`: its tight rows become
    # violated ones
    spec = THEOREMS[theorem]
    return mock.patch.dict(THEOREMS, {theorem: dataclasses.replace(spec, offset=spec.offset - weaken)})


@settings(max_examples=40)
@given(
    variant=st.sampled_from(_PAIR_VARIANTS + [(tag, None) for tag in ("main", "corollary-add", "corollary-mult")]),
    p=st.sampled_from([5, 7, 11]),
    max_set_size=st.none() | st.integers(1, 5),
    partitions=st.integers(1, 3),
    tight_cap=st.integers(1, 40),
    weaken=st.integers(0, 1),
)
def test_exhaustive_sweeps_record_kernel_rows(variant, p, max_set_size, partitions, tight_cap, weaken):
    # the single-set partitions and the pair sweep's `_first_entries`
    theorem, mode = variant
    if THEOREMS[theorem].pair and p == 11:
        max_set_size = min(max_set_size or 3, 3)
    config = SweepConfig(theorem=theorem, primes=(p,), group_mode=mode, max_set_size=max_set_size,
                         partitions=partitions, tight_cap=tight_cap)
    with _weakened(theorem, weaken):
        _assert_rows_are_fresh_kernel_rows(config)


@settings(max_examples=40)
@given(
    variant=st.sampled_from(
        [("ks", GroupMode.ADDITIVE), ("ks", GroupMode.MULTIPLICATIVE)]
        + [(tag, None) for tag in ALL_THEOREMS if tag != "ks"]
    ),
    seed=st.integers(0, (1 << 64) - 1),
    max_set_size=st.integers(2, 6),
    weaken=st.integers(0, 1),
)
def test_hunts_record_kernel_rows(variant, seed, max_set_size, weaken):
    # p = 31 runs the array kernels, p = 67 the Python-int fork past 63
    # bits; uncapped draws are too large to meet the hypotheses, so the size
    # is capped
    theorem, mode = variant
    config = SweepConfig(theorem=theorem, primes=(31, 67), group_mode=mode, samples=120, seed=seed,
                         max_set_size=max_set_size, tight_cap=30)
    with _weakened(theorem, weaken):
        _assert_rows_are_fresh_kernel_rows(config)


@pytest.mark.parametrize("theorem,primes,samples,weaken", [
    ("mult", (7,), None, 0),
    ("cover", (7,), None, 0),
    ("additive", (7,), None, 1),
    ("main", (11,), None, 0),
    ("corollary-add", (11,), None, 1),
    ("mult", (31, 67), 600, 1),
    ("main", (31, 67), 600, 0),
])
def test_materialize_makes_no_kernel_call(monkeypatch, theorem, primes, samples, weaken):
    def refuse(*args):
        raise AssertionError("a kernel ran while report entries were formatted")

    materialize = search._materialize
    formatted = []

    def kernels_off(universe, theorem, stats, attach):
        with mock.patch.object(search, "_eval", refuse):
            materialize(universe, theorem, stats, attach)
        formatted.append(len(stats.tight) + len(stats.counterexamples))

    monkeypatch.setattr(search, "_materialize", kernels_off)
    config = SweepConfig(theorem=theorem, primes=primes, samples=samples,
                         seed=None if samples is None else 3, max_set_size=4, tight_cap=20,
                         attach_certificates=True)
    with _weakened(theorem, weaken):
        exhaustive_verify(config)
    assert len(formatted) == len(primes) and all(formatted)


# ----------------------------------------------------------- determinism


def test_exhaustive_reports_are_deterministic():
    config = SweepConfig(theorem="mult", primes=(5, 7))
    r1 = exhaustive_verify(config)
    r2 = exhaustive_verify(config)
    assert r1.to_json() == r2.to_json()
    assert r1.to_csv() == r2.to_csv()


def test_partitioned_sweep_merges_to_single_partition_report():
    base = SweepConfig(theorem="additive", primes=(7,))
    split = SweepConfig(theorem="additive", primes=(7,), partitions=4)
    r1 = exhaustive_verify(base)
    r2 = exhaustive_verify(split)
    d1, d2 = r1.to_json_dict(), r2.to_json_dict()
    d1["config"].pop("partitions")
    d2["config"].pop("partitions")
    assert d1 == d2


def test_parallel_jobs_match_serial():
    # one pool serves every prime: a pair and a single-set theorem over three
    for theorem in ("mult", "corollary-add"):
        split = SweepConfig(theorem=theorem, primes=(5, 7, 11), partitions=3)
        serial = exhaustive_verify(split, jobs=1)
        parallel = exhaustive_verify(split, jobs=2)
        assert serial.to_json() == parallel.to_json(), theorem


@pytest.mark.parametrize("theorem", ["mult", "corollary-add"])
@pytest.mark.parametrize("jobs,pools", [(1, 0), (2, 1)])
def test_sweep_set_up_is_built_once(monkeypatch, jobs, pools, theorem):
    # one universe and one mask list per prime, one pool per command
    counts = {"universe": 0, "masks": 0, "pool": 0}
    init, masks_upto = search._Universe.__init__, search._masks_upto

    def counted_init(self, *args):
        counts["universe"] += 1
        init(self, *args)

    def counted_masks(*args):
        counts["masks"] += 1
        return masks_upto(*args)

    def get_context(method):
        context = multiprocessing.get_context(method)

        def pool(*args):
            counts["pool"] += 1
            return context.Pool(*args)

        return types.SimpleNamespace(Pool=pool)

    monkeypatch.setattr(search._Universe, "__init__", counted_init)
    monkeypatch.setattr(search, "_masks_upto", counted_masks)
    monkeypatch.setattr(search, "multiprocessing", types.SimpleNamespace(get_context=get_context))
    exhaustive_verify(SweepConfig(theorem=theorem, primes=(5, 7, 11), partitions=3), jobs=jobs)
    assert counts == {"universe": 3, "masks": 3, "pool": pools}


def test_hunt_is_deterministic_and_reports_prng():
    config = SweepConfig(
        theorem="cover", primes=(7,), samples=500, seed=42
    )
    r1 = hunt_counterexample(config)
    r2 = hunt_counterexample(config)
    assert r1.to_json() == r2.to_json()
    assert r1.prng == {"algorithm": "splitmix64", "seed": 42}
    assert r1.counterexample_total == 0


@pytest.mark.parametrize("theorem,primes", [("cover", (7, 11)), ("main", (13,))])
def test_exhaustive_verify_forwards_a_sampled_config_to_the_hunt(theorem, primes):
    config = SweepConfig(theorem=theorem, primes=primes, samples=600, seed=5, max_set_size=4)
    assert exhaustive_verify(config).to_json() == hunt_counterexample(config).to_json()


def test_hunt_zero_samples():
    config = SweepConfig(theorem="mult", primes=(7,), samples=0, seed=1)
    report = hunt_counterexample(config)
    assert report.stats_for(7).examined == 0
    assert report.ok()


def test_hunt_large_prime_sampled():
    config = SweepConfig(
        theorem="main", primes=(101,), samples=10_000, seed=7, max_set_size=8
    )
    report = hunt_counterexample(config)
    stats = report.stats_for(101)
    assert stats.examined == 10_000
    assert stats.counterexample_count == 0
    assert stats.contradictions == 0
    assert stats.hypothesis_satisfying > 0


def test_splitmix64_known_stream():
    rng = SplitMix64(42)
    first = [rng.next_word() for _ in range(3)]
    # frozen reference stream: any reimplementation must reproduce it
    assert first == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


# ----------------------------------------------------------- validation


def test_config_validation_errors():
    with pytest.raises(ValueError):
        SweepConfig(theorem="nope", primes=(5,)).validate()
    with pytest.raises(ValueError):
        SweepConfig(theorem="ks", primes=(5,)).validate()  # needs a mode
    with pytest.raises(ValueError):
        SweepConfig(theorem="mult", primes=(5,), samples=10).validate()  # no seed
    with pytest.raises(ValueError):
        SweepConfig(theorem="mult", primes=()).validate()
    with pytest.raises(ValueError):
        SweepConfig(
            theorem="mult", primes=(5,), group_mode=GroupMode.ADDITIVE
        ).validate()
    with pytest.raises(ValueError):
        SweepConfig(theorem="mult", primes=(5,), samples=5, seed=1, partitions=2).validate()
    with pytest.raises(ValueError, match="hunt_counterexample needs a sample count"):
        hunt_counterexample(SweepConfig(theorem="mult", primes=(5,)))
    # named before the 63-bit limit of an exhaustive sweep, which is not asked for
    with pytest.raises(ValueError, match="^hunt_counterexample needs a sample count$"):
        hunt_counterexample(SweepConfig(theorem="main", primes=(67,)))
    with pytest.raises(ValueError, match="repeated prime 7"):
        SweepConfig(theorem="mult", primes=(7, 5, 7), samples=200, seed=1).validate()
    # a seed changes nothing in an exhaustive sweep; the field checks below
    # come first, with a seed set
    with pytest.raises(ValueError, match="^exhaustive sweeps take no seed$"):
        exhaustive_verify(SweepConfig(theorem="mult", primes=(5,), seed=1))
    for field, value, word in [
        ("samples", -1, "sample count"),
        ("partitions", 0, "partitions"),
        ("max_set_size", 0, "max set size"),
        ("budget", 0, "budget"),
        ("tight_cap", -1, "tight list cap"),
    ]:
        config = SweepConfig(theorem="mult", primes=(5,), seed=1)
        with pytest.raises(ValueError, match=word):
            dataclasses.replace(config, **{field: value}).validate()


@pytest.mark.parametrize("seed", [-1, -5, 1 << 64, (1 << 64) + 1])
def test_seeds_outside_64_bits_are_rejected(seed):
    # such seeds would fold onto another seed's stream under another name
    config = SweepConfig(theorem="mult", primes=(5,), samples=5, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        config.validate()
    with pytest.raises(ValueError, match="seed"):
        hunt_counterexample(config)
    SweepConfig(theorem="mult", primes=(5,), samples=5, seed=(1 << 64) - 1).validate()


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_are_rejected(jobs):
    config = SweepConfig(theorem="mult", primes=(5,), partitions=2)
    with pytest.raises(ValueError, match=rf"^jobs must be between 1 and partitions \(2\); got {jobs}$"):
        exhaustive_verify(config, jobs=jobs)


@pytest.mark.parametrize("partitions,jobs", [(1, 2), (2, 3)])
def test_jobs_above_partitions_are_rejected(partitions, jobs):
    config = SweepConfig(theorem="mult", primes=(5,), partitions=partitions)
    with pytest.raises(ValueError, match=rf"^jobs must be between 1 and partitions \({partitions}\); got {jobs}$"):
        exhaustive_verify(config, jobs=jobs)
    sampled = SweepConfig(theorem="mult", primes=(5,), samples=10, seed=1)
    with pytest.raises(ValueError, match=r"^jobs .* partitions \(1\); got 2$"):
        exhaustive_verify(sampled, jobs=2)


def test_budget_enforced():
    config = SweepConfig(theorem="additive", primes=(17,))
    with pytest.raises(ValueError, match="budget"):
        exhaustive_verify(config)
    assert (2**17 - 1) ** 2 > DEFAULT_BUDGET


@pytest.mark.parametrize("theorem,p,max_size,count", [
    # the count is of the masks within the size cap, the empty one included
    ("main", 31, None, (1 << 30) - 1),
    ("main", 31, 4, 31930),
    ("corollary-add", 13, 13, (1 << 13) - 1),
    ("additive", 23, None, 23 * 22 << 23),
    ("additive", 23, 3, 23 * 22 * 2048),
    ("cover", 61, 3, 60 * 16 * 36051),
])
def test_budget_counts_the_masks_within_the_size_cap(theorem, p, max_size, count):
    config = SweepConfig(theorem=theorem, primes=(p,), max_set_size=max_size, budget=count)
    config.validate()
    with pytest.raises(ValueError, match=f"^exhaustive sweep at p = {p} needs {count} "):
        dataclasses.replace(config, budget=count - 1).validate()


@pytest.mark.parametrize("theorem,p", [("main", 67), ("additive", 67), ("cover", 67), ("corollary-add", 101)])
def test_exhaustive_sweeps_past_63_bits_are_refused(theorem, p):
    config = SweepConfig(theorem=theorem, primes=(p,), max_set_size=2)
    with pytest.raises(ValueError, match=f"^exhaustive sweep at p = {p} needs .*-bit masks; at most 63"):
        config.validate()
    # sampled hunts go on past 63 bits
    dataclasses.replace(config, samples=10, seed=1).validate()


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        exhaustive_verify(SweepConfig(theorem="mult", primes=(9,)))


# ------------------------------------------------------- tight instances


def test_tight_list_contains_root_of_unity_family():
    report = exhaustive_verify(SweepConfig(theorem="mult", primes=(5,)))
    entries = report.stats_for(5).tight
    assert any(
        e["A"] == [1, 2, 3, 4] and e["B"] == [1, 2, 4] and 1 in e["c"]
        for e in entries
    )


def test_tight_list_contains_cover_example():
    report = exhaustive_verify(SweepConfig(theorem="cover", primes=(7,)))
    entries = report.stats_for(7).tight
    assert any(e["A"] == [1, 2] and e["B"] == [1, 2] for e in entries)


def test_tight_list_contains_corollary_mult_family():
    report = exhaustive_verify(SweepConfig(theorem="corollary-mult", primes=(5,)))
    entries = report.stats_for(5).tight
    assert any(e["A"] == [1, 2, 3, 4] for e in entries)


def test_attach_certificates_on_tight_instances():
    config = SweepConfig(theorem="cover", primes=(7,), attach_certificates=True)
    report = exhaustive_verify(config)
    entries = report.stats_for(7).tight
    assert entries and all("certificate" in e for e in entries)
    assert all(e["certificate"]["verdict"] == "BoundCertified" for e in entries)
    assert all(e["certificate"]["tight"] for e in entries)


# ------------------------------------------------------------ tight example


def test_construct_tight_example_structure():
    with pytest.raises(ValueError):
        construct_tight_example(2)
    ex3 = construct_tight_example(3)
    assert ex3.degenerate and ex3.field.p == 3 and ex3.w.value == 2
    ex4 = construct_tight_example(4)
    assert (ex4.field.p, ex4.w.value) == (5, 2)
    assert ex4.A.values == (1, 2, 3, 4) and ex4.B.values == (1, 2, 4)
    assert ex4.product_size == 4 and ex4.unique_representation == (3, 2)
    ex5 = construct_tight_example(5)
    assert (ex5.field.p, ex5.w.value) == (7, 3)
    assert ex5.product_size == 6


@pytest.mark.parametrize("n", range(4, 13))
def test_construct_tight_example_family(n):
    ex = construct_tight_example(n)
    assert len(ex.A) == n
    assert len(ex.B) == n - 1
    assert ex.product_size == 2 * n - 4
    assert ex.unique_representation is not None


def test_report_shapes():
    report = exhaustive_verify(SweepConfig(theorem="mult", primes=(5,)))
    data = report.to_json_dict()
    assert "wall_time_s" not in data
    assert set(data) == {"config", "prng", "per_prime", "totals"}
    csv = report.to_csv().strip().splitlines()
    assert csv[0].startswith("theorem,p,examined")
    assert csv[1].startswith("mult,5,")
    assert isinstance(report, Report)
