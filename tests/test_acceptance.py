"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact (finite-field arithmetic, tolerance zero).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time

from nullcert.certify import symmetric_pair_summand
from nullcert.cli import main as cli_main
from nullcert.field import PrimeField
from nullcert.poly import (
    BivariatePolynomial,
    feasible_exceptional_points,
    interpolation_term,
    line_product,
    min_degree_feasibility,
    monomials_up_to,
    top_coefficient_interpolation,
    vanishing_profile,
)
from nullcert.search import SweepConfig, construct_tight_example, exhaustive_verify
from nullcert.sets import (
    ElementSet,
    GroupMode,
    dyson_transform,
    full_combine,
    representations,
    symmetric_pair_elements,
)

from conftest import combine_oracle, nonempty_subsets, rep_pairs_oracle

ADD = GroupMode.ADDITIVE
MULT = GroupMode.MULTIPLICATIVE


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_additive_sweep_exhaustive():
    # |A +. B| >= |A| + |B| - 2 whenever some c has a unique restricted
    # representation; p in {3, 5, 7, 11}; the p = 11 run must stay under 60 s.
    report = exhaustive_verify(SweepConfig(theorem="additive", primes=(3, 5, 7)))
    assert report.counterexample_total == 0
    started = time.monotonic()
    big = exhaustive_verify(SweepConfig(theorem="additive", primes=(11,)))
    elapsed = time.monotonic() - started
    assert big.counterexample_total == 0
    stats = big.stats_for(11)
    assert stats.examined == (2**11 - 1) ** 2
    assert stats.bound_holding == stats.hypothesis_satisfying
    assert elapsed < 60.0
    _report(
        "criterion 1",
        f"additive sweep p in {{3,5,7,11}}, {stats.hypothesis_satisfying} "
        f"hypothesis instances at p=11, 0 counterexamples, p=11 in {elapsed:.2f}s",
    )


def test_criterion_02_multiplicative_sweep_exhaustive():
    report = exhaustive_verify(SweepConfig(theorem="mult", primes=(3, 5, 7, 11)))
    assert report.counterexample_total == 0
    for p in (3, 5, 7, 11):
        stats = report.stats_for(p)
        assert stats.examined == (2 ** (p - 1) - 1) ** 2
        assert stats.bound_holding == stats.hypothesis_satisfying
    _report(
        "criterion 2",
        f"multiplicative sweep p in {{3,5,7,11}}, "
        f"{sum(s.hypothesis_satisfying for s in report.per_prime)} instances, "
        "0 counterexamples",
    )


def test_criterion_03_symmetric_pair_sweep_exhaustive():
    report = exhaustive_verify(
        SweepConfig(theorem="main", primes=(2, 3, 5, 7, 11, 13, 17))
    )
    assert report.counterexample_total == 0
    assert report.contradiction_total == 0
    stats13 = report.stats_for(13)
    assert (stats13.examined, stats13.hypothesis_satisfying, stats13.tight_count) == (
        4095, 15036, 584,
    )
    stats17 = report.stats_for(17)
    assert stats17.examined == 2**16 - 1
    assert stats17.bound_holding == stats17.hypothesis_satisfying > 0
    _report(
        "criterion 3",
        f"two-representation sweep p <= 17, "
        f"{sum(s.hypothesis_satisfying for s in report.per_prime)} (A, c) "
        "instances, 0 counterexamples, contradiction branch fired 0 times",
    )


def test_criterion_04_cover_sweep_exhaustive():
    report = exhaustive_verify(SweepConfig(theorem="cover", primes=(2, 3, 5, 7, 11)))
    assert report.counterexample_total == 0
    tight7 = report.stats_for(7).tight
    assert any(e["A"] == [1, 2] and e["B"] == [1, 2] for e in tight7)
    _report(
        "criterion 4",
        f"cover sweep p <= 11, "
        f"{sum(s.hypothesis_satisfying for s in report.per_prime)} nonempty-N "
        "pairs, 0 counterexamples; A=B={1,2} mod 7 is in the tight list",
    )


def test_criterion_05_tightness_family():
    for n in range(4, 13):
        ex = construct_tight_example(n)
        p = ex.field.p
        # independent recomputation of all four guarantees
        a_vals, b_vals = list(ex.A.values), list(ex.B.values)
        assert len(a_vals) == n
        assert len(b_vals) == n - 1
        assert len(combine_oracle("mult", p, a_vals, b_vals, True)) == 2 * n - 4
        reps = rep_pairs_oracle("mult", p, a_vals, b_vals, 1, restricted=True)
        w = ex.w.value
        assert reps == [(pow(w, n - 1, p), pow(w, n - 3, p))]
        a, b = reps[0]
        assert pow(a, n - 2, p) == pow(b, n - 2, p)
    _report(
        "criterion 5",
        "for n in 4..12: |A| = n, |B| = n-1, product size 2n-4, unique "
        "representation of 1, and the pair is power-tied",
    )


def test_criterion_06_interpolation_oracle_equivalence():
    checked = 0
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        rng = random.Random(6_000 + p)
        for _ in range(1000):
            na = rng.randrange(1, 6)
            nb = rng.randrange(1, 6)
            A = [field.element(v) for v in rng.sample(range(p), na)]
            B = [field.element(v) for v in rng.sample(range(p), nb)]
            terms = {}
            for i, j in monomials_up_to(na + nb - 2):
                if rng.random() < 0.5:
                    terms[(i, j)] = rng.randrange(p)
            f = BivariatePolynomial(field, terms)
            assert top_coefficient_interpolation(f, A, B) == f.coefficient(
                na - 1, nb - 1
            )
            checked += 1
    assert checked == 4000
    _report(
        "criterion 6",
        "grid interpolation equals direct coefficient extraction on 1000 "
        "random polynomials for each p in {5, 7, 11, 13}, exactly",
    )


def _check_grid(field, X, Y, rng):
    """Every point infeasible below the threshold, all feasible at Lagrange."""
    p = field.p
    sx, sy = len(X), len(Y)
    all_points = {(t, s) for t in X for s in Y}
    solver_checks = 0
    for d in range(sx + sy - 2):
        feasible = feasible_exceptional_points(X, Y, d, field=field)
        assert feasible == set(), (X, Y, d, feasible)
        # spot-check the one-shot solver against the batch answer
        t, s = sorted(all_points)[rng.randrange(len(all_points))]
        assert not min_degree_feasibility(X, Y, (t, s), d, field=field).feasible
        solver_checks += 1
    lagrange = (sx - 1) + (sy - 1)
    feasible = feasible_exceptional_points(X, Y, lagrange, field=field)
    assert feasible == all_points
    t, s = sorted(all_points)[rng.randrange(len(all_points))]
    result = min_degree_feasibility(X, Y, (t, s), lagrange, field=field)
    assert result.feasible
    profile = [(int(a), int(b)) for a, b in vanishing_profile(result.witness, X, Y)]
    assert profile == [(t, s)]
    assert result.witness.evaluate(t, s).value == 1
    return solver_checks


def test_criterion_07_degree_feasibility_threshold():
    rng = random.Random(7_777)
    grids = 0
    # exhaustive over every grid for the small primes
    for p in (2, 3, 5):
        field = PrimeField(p)
        subsets = nonempty_subsets(range(p))
        for X in subsets:
            for Y in subsets:
                _check_grid(field, list(X), list(Y), rng)
                grids += 1
    # deterministic grid selection for the larger primes: the canonical grid
    # plus two seeded draws per shape, every exceptional point each time
    for p in (7, 11, 13):
        field = PrimeField(p)
        for sx in range(1, 6):
            for sy in range(1, 6):
                choices = [
                    (list(range(sx)), list(range(sy))),
                    (sorted(rng.sample(range(p), sx)), sorted(rng.sample(range(p), sy))),
                    (sorted(rng.sample(range(p), sx)), sorted(rng.sample(range(p), sy))),
                ]
                for X, Y in choices:
                    _check_grid(field, X, Y, rng)
                    grids += 1
    _report(
        "criterion 7",
        f"over {grids} grids (exhaustive for p <= 5, deterministic draws for "
        "p in {7, 11, 13}): infeasible for every point at every "
        "D < |X|+|Y|-2, feasible at the Lagrange degree, witnesses revalidate",
    )


def _theorem_polynomial(field, a_vals, c):
    p = field.p
    prods = sorted(combine_oracle("mult", p, a_vals, a_vals, restricted=True))
    lines = [(1, (-g) % p, 0) for g in prods if g != c]
    hyperbola = BivariatePolynomial(field, {(1, 1): 1, (0, 0): p - 1})
    return line_product(field, lines).multiply(hyperbola), len(prods)


def test_criterion_08_summand_identity():
    rng = random.Random(8_888)
    instances = 0
    degree_gated = 0
    while instances < 1000:
        p = rng.choice([5, 7, 11, 13])
        field = PrimeField(p)
        size = rng.randrange(2, min(7, p))
        a_vals = sorted(rng.sample(range(1, p), size))
        A = ElementSet(field, MULT, a_vals)
        for c in symmetric_pair_elements(A, A).values:
            if instances >= 1000:
                break
            instances += 1
            reps = representations(A, A, field.element(c), restricted=True)
            a, b = reps[0].a, reps[0].b
            n = len(A)
            s_ab = symmetric_pair_summand(a, b, A, c)
            s_ba = symmetric_pair_summand(b, a, A, c)
            assert s_ba == -((b / a) ** (n - 2)) * s_ab
            f, m = _theorem_polynomial(field, a_vals, c)
            if f.degree() > 2 * n - 2:
                continue
            degree_gated += 1
            a_inv = sorted(pow(v, -1, p) for v in a_vals)
            total = top_coefficient_interpolation(f, a_vals, a_inv)
            raw_ab = interpolation_term(f, a_vals, a_inv, a.value, int(b.inverse()))
            raw_ba = interpolation_term(f, a_vals, a_inv, b.value, int(a.inverse()))
            # the grid sum collapses to its two nonzero terms, and matches
            # the directly extracted coefficient
            assert total == raw_ab + raw_ba
            assert total == f.coefficient(n - 1, n - 1)
            # closed form vs raw term: off by exactly b^(m - (2n-4))
            fudge = pow(b.value, (m - (2 * n - 4)) % (p - 1), p)
            assert s_ab.value == raw_ab.value * fudge % p
            if m == 2 * n - 4:
                assert (s_ab + s_ba) == total
    assert degree_gated >= 100
    _report(
        "criterion 8",
        f"1000 random valid (A, c) instances: ratio identity exact; on the "
        f"{degree_gated} instances with deg f <= 2n-2 the interpolated top "
        "coefficient equals the sum of the two grid terms, exactly",
    )


def test_criterion_09_dyson_transform_invariants():
    checked = 0
    for mode, universe, op in (
        (ADD, range(7), lambda x, b: (x + b) % 7),
        (MULT, range(1, 7), lambda x, b: x * b % 7),
    ):
        field = PrimeField(7)
        subsets = nonempty_subsets(universe)
        sets = {vals: ElementSet(field, mode, vals) for vals in subsets}
        for a_vals in subsets:
            A = sets[a_vals]
            for b_vals in subsets:
                B = sets[b_vals]
                for x in universe:
                    A2, B2 = dyson_transform(A, B, field.element(x))
                    assert len(A2) + len(B2) == len(A) + len(B)
                    checked += 1
                    if len(A2) == 0:
                        continue
                    xB = sets.get(tuple(sorted(op(x, b) for b in b_vals)))
                    lhs = full_combine(A2, B2)
                    rhs = full_combine(A, xB)
                    assert set(lhs.values) <= set(rhs.values)
    assert checked == 127 * 127 * 7 + 63 * 63 * 6
    _report(
        "criterion 9",
        f"{checked} transforms at p = 7 (both modes): size sum preserved and "
        "the transformed full combine is contained in the original, 0 violations",
    )


def test_criterion_10_determinism(tmp_path):
    # exhaustive report object
    config = SweepConfig(theorem="mult", primes=(5, 7))
    assert exhaustive_verify(config).to_json() == exhaustive_verify(config).to_json()
    # sampled sweep through the CLI, byte-for-byte
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    args = ["verify", "--theorem", "cover", "--prime", "7",
            "--samples", "1000", "--seed", "42"]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # certificate files
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    cert_args = ["certificate", "--mode", "mult", "--prime", "7",
                 "--a", "1,2", "--b", "2,3", "--c", "3"]
    assert cli_main(cert_args + ["--out", str(c1)]) == 0
    assert cli_main(cert_args + ["--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    # tight example files
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    assert cli_main(["tight", "--n", "8", "--format", "json", "--out", str(t1)]) == 0
    assert cli_main(["tight", "--n", "8", "--format", "json", "--out", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    _report(
        "criterion 10",
        "reruns of sweep, certificate, and tight-example commands produce "
        "byte-identical files",
    )
