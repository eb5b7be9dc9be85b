#!/usr/bin/env python3
"""The benchmark's own tests; kept out of the package's test suite.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py
"""

import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import nullcert  # noqa: E402
import nullcert.cli  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(sid, name, start, end, parent=None, note=None):
    return [sid, name, start, end, parent, 0, note]


class SelfTimeTest(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(tracing.self_times([span(0, "a", 1.0, 3.5)]), {0: 2.5})

    def test_nested_and_overlapping_children(self):
        spans = [
            span(0, "parent", 0.0, 10.0),
            span(1, "a", 1.0, 4.0, parent=0),
            span(2, "a.inner", 2.0, 3.0, parent=1),  # inside a: no effect on parent
            span(3, "b", 3.0, 6.0, parent=0),  # overlaps a
            span(4, "c", 8.0, 12.0, parent=0),  # runs past the parent's end
            span(5, "d", -1.0, 0.5, parent=0),  # starts before the parent
        ]
        got = tracing.self_times(spans)
        # covered: [0, 0.5] + [1, 6] + [8, 10] = 7.5 of 10
        self.assertAlmostEqual(got[0], 2.5)
        self.assertAlmostEqual(got[1], 2.0)
        self.assertAlmostEqual(got[2], 1.0)
        self.assertAlmostEqual(got[3], 3.0)

    def test_child_contained_in_earlier_child(self):
        spans = [
            span(0, "parent", 0.0, 10.0),
            span(1, "a", 1.0, 9.0, parent=0),
            span(2, "b", 2.0, 3.0, parent=0),
        ]
        self.assertAlmostEqual(tracing.self_times(spans)[0], 2.0)

    def test_replay_ratio_counts_only_calls_from_search(self):
        spans = [
            span(0, "search.exhaustive_verify", 0.0, 10.0),
            span(1, "certify.symmetric_pair_certificate", 1.0, 2.0, 0, "DirectlySatisfied"),
            span(2, "certify.symmetric_pair_certificate", 2.0, 3.0, 0, "TheoremContradictionError"),
            span(3, "bench.main", 4.0, 6.0),
            span(4, "certify.symmetric_pair_certificate", 4.0, 5.0, 3, "HypothesisUnmet"),
        ]
        figures = tracing.layer_metrics(spans)
        self.assertEqual(figures["search.replay_calls"], 2)
        self.assertEqual(figures["search.replay_useful_ratio"], 0.5)
        self.assertAlmostEqual(figures["search.exhaustive_self_s"], 8.0)
        self.assertAlmostEqual(figures["certify.build_self_s.main"], 3.0)


class TracerTest(unittest.TestCase):
    def test_wraps_every_importing_module_and_restores(self):
        originals = {
            name: getattr(module, name)
            for module, name in [
                (nullcert.sets, "restricted_combine"),
                (nullcert.certify, "restricted_combine"),
                (nullcert.search, "symmetric_pair_certificate"),
                (nullcert, "verify_certificate"),
            ]
        }
        to_json = nullcert.certify.Certificate.__dict__["to_json"]
        from_json = nullcert.certify.Certificate.__dict__["from_json"]
        tracer = tracing.Tracer()
        with tracer.installed():
            self.assertIsNot(nullcert.certify.restricted_combine, originals["restricted_combine"])
            self.assertIs(nullcert.certify.restricted_combine, nullcert.sets.restricted_combine)
            self.assertIsNot(
                nullcert.search.symmetric_pair_certificate,
                originals["symmetric_pair_certificate"],
            )
            F = nullcert.PrimeField(7)
            mult = nullcert.GroupMode.MULTIPLICATIVE
            A = nullcert.ElementSet(F, mult, (1, 2, 4))
            cert = tracer.run(7, "probe", lambda: nullcert.certify.hyperbola_cover_certificate(A, A))
            nullcert.certify.Certificate.from_json(cert.to_json())
        self.assertIs(nullcert.sets.restricted_combine, originals["restricted_combine"])
        self.assertIs(nullcert.certify.restricted_combine, originals["restricted_combine"])
        self.assertIs(
            nullcert.search.symmetric_pair_certificate, originals["symmetric_pair_certificate"]
        )
        self.assertIs(nullcert.verify_certificate, originals["verify_certificate"])
        self.assertIs(nullcert.certify.Certificate.__dict__["to_json"], to_json)
        self.assertIs(nullcert.certify.Certificate.__dict__["from_json"], from_json)

        names = {s[0]: s[1] for s in tracer.spans}
        parents = {s[1]: names.get(s[4]) for s in tracer.spans}
        self.assertEqual(parents["certify.hyperbola_cover_certificate"], "bench.probe")
        self.assertEqual(parents["sets.exceptional_square_set"], "certify.hyperbola_cover_certificate")
        self.assertEqual(tracer.spans[0][5], 7)
        self.assertIn("certify.Certificate.from_json", parents)
        self.assertIsNone(parents["certify.Certificate.to_json"])
        notes = {s[1]: s[6] for s in tracer.spans}
        self.assertEqual(notes["certify.hyperbola_cover_certificate"], cert.verdict)


class ClockTest(unittest.TestCase):
    def test_stretches_scale_by_the_slowdowns_around_them(self):
        ref = probe.REF_S["py"]
        readings = iter([2 * ref, 2 * ref, 0.5 * ref, 1.5 * ref])  # slowdowns 2, 2, 0.5, 1.5
        real = probe.probe_s
        probe.probe_s = lambda kind: next(readings)
        try:
            clock = probe.Clock("py")
            clock.add(0.2)  # under SEGMENT_S: no probe yet
            clock.add(0.4)  # 0.6 s between slowdowns 2 and 2 -> 0.3 s
            clock.add(0.6)  # between 2 and 0.5, mean 1.25 -> 0.48 s
            clock.add(0.1, last=True)  # the pass ends: between 0.5 and 1.5 -> 0.1 s
        finally:
            probe.probe_s = real
        self.assertEqual([round(x, 9) for x in clock.slowdowns], [2, 2, 0.5, 1.5])
        self.assertAlmostEqual(clock.ref_s, 0.3 + 0.48 + 0.1)

    def test_mix_averages_both_slowdowns(self):
        real = probe.probe_s
        probe.probe_s = lambda kind: probe.REF_S[kind] * {"py": 3, "np": 1}[kind]
        try:
            self.assertAlmostEqual(probe.slowdown("mix"), 2)
        finally:
            probe.probe_s = real

    def test_probes_do_fixed_work(self):
        for kind, work in probe.WORK.items():
            self.assertEqual(work(), work(), kind)


class WorkloadInputTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(workload, 5), workloads.generate(workload, 5))

    def test_seed_changes_seeded_inputs(self):
        self.assertNotEqual(workloads.generate("proofs", 1), workloads.generate("proofs", 2))
        self.assertNotEqual(workloads.generate("set-sweep", 1), workloads.generate("set-sweep", 2))
        self.assertEqual(workloads.generate("pair-sweep", 1), workloads.generate("pair-sweep", 2))

    def test_proof_inputs_meet_each_hypothesis(self):
        inputs = workloads.generate("proofs", 3)
        for A, B, c in inputs["additive"]:
            self.assertEqual(
                sum(1 for a in A for b in B if a != b and (a + b) % workloads.ADDITIVE_P == c), 1
            )
        for A, B in inputs["cover"]:
            self.assertTrue(workloads.exceptional_squares(A, B, workloads.MULT_P))
        for A, chosen in inputs["main"]:
            self.assertTrue(set(chosen) <= set(workloads.symmetric_targets(A, workloads.MULT_P)))

    def test_tight_sets_match_construct_tight_example(self):
        for n in (8, 9, 12):
            example = nullcert.construct_tight_example(n)
            F, powers = workloads.tight_powers(nullcert, n)
            self.assertEqual(F, example.field)
            self.assertEqual(sorted(powers), list(example.A.values))
            self.assertEqual(sorted(powers[:-1]), list(example.B.values))

    def test_gather_ops_matches_a_direct_count(self):
        for theorem, p, extra in (("additive", 5, ()), ("mult", 7, ()), ("ks", 5, ("--mode", "add"))):
            m = p if theorem != "mult" else p - 1
            direct = sum(bin(a).count("1") * ((1 << m) - 1) for a in range(1, 1 << m))
            inputs = {"sweeps": [workloads.sweep_argv(theorem, p, extra)]}
            self.assertEqual(workloads.gather_ops(inputs), direct)


if __name__ == "__main__":
    unittest.main()
