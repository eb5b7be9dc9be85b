"""Shared brute-force oracles: independent of the library's fast paths.

Everything here works on plain Python ints and dicts so that test
expectations never route through the code under test.  The sampling and
counting oracles use only their own splitmix64 (`SplitMix64Oracle`) and the
fields of `PrimeStats`.
"""

from __future__ import annotations

import itertools

from hypothesis import settings

from nullcert import search

# Property tests run arbitrary work per example and, on failure, print the
# blob that replays the failing example with @reproduce_failure.
settings.register_profile("nullcert", deadline=None, print_blob=True)
settings.load_profile("nullcert")


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def inverse_oracle(v: int, p: int) -> int:
    g, x, _ = xgcd(v % p, p)
    assert g == 1
    return x % p


def order_oracle(v: int, p: int) -> int:
    """Multiplicative order by listing successive powers."""
    acc = v % p
    k = 1
    while acc != 1:
        acc = acc * v % p
        k += 1
    return k


def combine_oracle(mode: str, p: int, A, B, restricted: bool) -> set[int]:
    op = (lambda a, b: (a + b) % p) if mode == "add" else (lambda a, b: a * b % p)
    return {
        op(a, b) for a in A for b in B if not (restricted and a == b)
    }


def rep_count_oracle(mode: str, p: int, A, B, restricted: bool) -> dict[int, int]:
    op = (lambda a, b: (a + b) % p) if mode == "add" else (lambda a, b: a * b % p)
    counts: dict[int, int] = {}
    for a in A:
        for b in B:
            if restricted and a == b:
                continue
            c = op(a, b)
            counts[c] = counts.get(c, 0) + 1
    return counts


def rep_pairs_oracle(mode: str, p: int, A, B, c: int, restricted: bool) -> list[tuple[int, int]]:
    op = (lambda a, b: (a + b) % p) if mode == "add" else (lambda a, b: a * b % p)
    return sorted(
        (a, b)
        for a in A
        for b in B
        if op(a, b) == c % p and not (restricted and a == b)
    )


def symmetric_pair_targets_oracle(mode: str, p: int, A) -> set[int]:
    """Targets of A o A with exactly two restricted representations."""
    counts = rep_count_oracle(mode, p, A, A, restricted=True)
    return {c for c, k in counts.items() if k == 2}


def exceptional_square_oracle(p: int, A, B) -> set[int]:
    prods = combine_oracle("mult", p, A, B, restricted=True)
    return {a for a in set(A) & set(B) if a * a % p not in prods}


# |A o B| >= |A| + |B| - offset, with B = A for the single-set bounds;
# `cover` further subtracts floor(|N| / 2)
OFFSETS = {
    "ks": 1,
    "additive": 2,
    "mult": 3,
    "cover": 2,
    "main": 3,
    "corollary-add": 3,
    "corollary-mult": 4,
}


def instance_oracle(theorem: str, mode: str, p: int, A, B=None) -> tuple[int, int, list[int]]:
    """(size, bound, targets) of one instance of `theorem`, from the sets.

    The size is that of the restricted combine (full for `ks`) of A and B,
    or of A with itself when B is None (a single-set bound).  The targets
    are the elements represented exactly once; for `cover` the exceptional
    square set N; for a single set those represented exactly twice, less,
    for `main`, those whose pair has equal (n-2)-th powers.
    """
    restricted = theorem != "ks"
    single = B is None
    B = A if single else B
    size = len(combine_oracle(mode, p, A, B, restricted))
    bound = len(A) + len(B) - OFFSETS[theorem]
    if theorem == "cover":
        targets = exceptional_square_oracle(p, A, B)
        return size, bound - len(targets) // 2, sorted(targets)
    counts = rep_count_oracle(mode, p, A, B, restricted)
    targets = [c for c, k in counts.items() if k == (2 if single else 1)]
    if theorem == "main":
        n = len(A)
        tied = [rep_pairs_oracle(mode, p, A, A, c, True)[0] for c in targets]
        targets = [c for c, (a, b) in zip(targets, tied) if pow(a, n - 2, p) != pow(b, n - 2, p)]
    return size, bound, sorted(targets)


def group_elements_oracle(mode: str, p: int) -> list[int]:
    """The group in mask-bit order: the residues, or the powers of the
    smallest primitive root."""
    if mode == "add":
        return list(range(p))
    g = next(v for v in range(1, p) if order_oracle(v, p) == p - 1)
    return [pow(g, k, p) for k in range(p - 1)]


def mask_values_oracle(elements: list[int], mask: int) -> list[int]:
    """The sorted group elements whose bits are set in `mask`."""
    return sorted(v for k, v in enumerate(elements) if mask >> k & 1)


def nonempty_subsets(universe) -> list[tuple[int, ...]]:
    items = sorted(universe)
    out = []
    for r in range(1, len(items) + 1):
        out.extend(itertools.combinations(items, r))
    return out


class SplitMix64Oracle:
    """splitmix64 one word at a time on Python ints: the state steps by the
    golden constant, and each word is the state mixed by two xor-shift
    multiplies and a final xor-shift."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed

    def next_word(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)


def sample_mask_oracle(rng: SplitMix64Oracle, m: int, max_set_size: int | None) -> int:
    """One random nonempty subset mask, drawing one word at a time.

    With a size cap: size = 1 + (word mod min(cap, m)), then that many
    distinct indices word mod m, redrawing collisions.  Without a cap:
    ceil(m / 64) words, truncated to m bits, redrawn while empty.
    """
    if max_set_size is not None:
        size = 1 + rng.next_word() % min(max_set_size, m)
        mask = 0
        while bin(mask).count("1") < size:
            mask |= 1 << rng.next_word() % m
        return mask
    while True:
        mask = 0
        for chunk in range((m + 63) // 64):
            mask |= rng.next_word() << (64 * chunk)
        mask &= (1 << m) - 1
        if mask:
            return mask


def count_instance_oracle(stats, theorem: str, instance: tuple, entry, tight_cap: int) -> None:
    """Add one examined instance, given as `instance_oracle` returns it, to
    `stats`; `entry` is what the capped tight or counterexample list records."""
    size, bound, targets = instance
    stats.examined += 1
    units = min(len(targets), 1) if theorem == "cover" else len(targets)
    if not units:
        return
    stats.hypothesis_satisfying += units
    if size >= bound:
        stats.bound_holding += units
        if size == bound:
            stats.tight_count += 1
            if len(stats.tight) < tight_cap:
                stats.tight.append(entry)
    else:
        stats.counterexample_count += 1
        if len(stats.counterexamples) < search.COUNTEREXAMPLE_LIST_CAP:
            stats.counterexamples.append(entry)
