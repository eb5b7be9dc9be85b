"""The three workloads: seeded inputs, the operations run on them, and checks.

`generate(workload, seed)` builds plain-data inputs (ints, tuples, argument
lists) from the seed alone, without calling into nullcert, so the same seed
always gives the same inputs.  `operations(nc, workload, inputs, ...)` turns
them into a list of `Op`; running an `Op` calls nullcert, times each part,
checks the outputs and returns an `Outcome`.

Timed parts carry a kind, which `run.py` turns into a throughput:

* ``pairs``  -- (A, B) pairs examined by the exhaustive pair sweeps
* ``sets``   -- sets examined by the exhaustive single-set sweeps
* ``draws``  -- instances drawn by the sampled hunts
* ``built``  -- certificate builder calls
* ``verified`` -- ``Certificate.from_json`` plus ``verify_certificate``
* ``grid``   -- interpolation and feasibility checks
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("pair-sweep", "set-sweep", "proofs")

# The probe (probe.py) whose time tracked each workload's drift in speed best
# in a record of several minutes of passes interleaved with both probes.
PROBE_KIND = {"pair-sweep": "np", "set-sweep": "mix", "proofs": "mix"}

# Seeds whose sampled-hunt reports have recorded digests in golden.json,
# besides the seed-free exhaustive sweeps; see record_golden.py.  Other seeds
# are checked by report.ok() and the draw count.
GOLDEN_SEEDS = range(32)

HUNT_SAMPLES = 20000

PAIR_SWEEPS = (
    ("additive", 13, ()),
    ("mult", 13, ()),
    ("cover", 13, ()),
    ("ks", 11, ("--mode", "add")),
)
SET_SWEEPS = (
    ("main", 13, ()),
    ("corollary-add", 17, ()),
    ("corollary-mult", 17, ()),
)
HUNTS = (
    ("mult", 31, ("--max-size", "6")),
    ("cover", 31, ()),
    ("main", 31, ("--max-size", "8")),
)

# proofs: sizes are fixed so that every seed asks for the same amount of work;
# the seed only picks the elements.
ADDITIVE_P = 1009
ADDITIVE_SIZES = (10, 20, 35, 50)
ADDITIVE_REPEATS = 3
MULT_P = 257
MULT_SIZES = (8, 16, 24, 32)
MULT_REPEATS = 4
TIGHT_NS = range(8, 33)
COVER_SIZES = (6, 10, 14, 20)
COVER_REPEATS = 4
MAIN_SIZE = 30
MAIN_SETS = 6
MAIN_TARGETS = 8
GRID_P = 257
INTERPOLATION_GRIDS = ((4, 4), (6, 10), (8, 8), (12, 12), (10, 16), (16, 16), (20, 12), (20, 20))
FEASIBILITY_GRIDS = ((2, 3), (3, 4), (4, 4), (5, 5), (5, 7), (6, 6), (7, 7), (8, 6), (8, 8))
GRID_REPEATS = 2


def sweep_argv(theorem: str, p: int, extra: tuple, seed: int | None = None) -> list[str]:
    argv = ["verify", "--theorem", theorem, "--prime", str(p)]
    if seed is None:
        argv.append("--exhaustive")
    else:
        argv += ["--samples", str(HUNT_SAMPLES), "--seed", str(seed)]
    return argv + list(extra) + ["--jobs", "1"]


def golden_key(argv: list[str]) -> str:
    return " ".join(argv)


# --------------------------------------------------------------------------
# seeded inputs
# --------------------------------------------------------------------------


def _restricted_counts(A, B, p: int, mult: bool) -> Counter:
    return Counter((a * b if mult else a + b) % p for a in A for b in B if a != b)


def _unique_target(rng: random.Random, A, B, p: int, mult: bool) -> int | None:
    counts = _restricted_counts(A, B, p, mult)
    unique = sorted(c for c, k in counts.items() if k == 1)
    return rng.choice(unique) if unique else None


def _draw_with_target(rng, p: int, size: int, mult: bool) -> tuple:
    universe = range(1, p) if mult else range(p)
    while True:
        A = tuple(sorted(rng.sample(universe, size)))
        B = tuple(sorted(rng.sample(universe, size)))
        c = _unique_target(rng, A, B, p, mult)
        if c is not None:
            return A, B, c


def exceptional_squares(A, B, p: int) -> list[int]:
    """N = {a in A n B : a*a not in the restricted product set}, in pure Python."""
    products = set(_restricted_counts(A, B, p, True))
    bset = set(B)
    return sorted(a for a in A if a in bset and a * a % p not in products)


def symmetric_targets(A, p: int) -> list[int]:
    """c with exactly two restricted representations in A x A (then (a, b), (b, a))."""
    return sorted(c for c, k in _restricted_counts(A, A, p, True).items() if k == 2)


def generate(workload: str, seed: int) -> dict:
    """Plain-data inputs for `workload`; equal seeds give equal inputs."""
    if workload == "pair-sweep":
        return {"sweeps": [sweep_argv(t, p, extra) for t, p, extra in PAIR_SWEEPS]}
    if workload == "set-sweep":
        return {
            "sweeps": [sweep_argv(t, p, extra) for t, p, extra in SET_SWEEPS],
            "hunts": [sweep_argv(t, p, extra, seed) for t, p, extra in HUNTS],
        }
    if workload != "proofs":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    additive = [
        _draw_with_target(rng, ADDITIVE_P, k, False)
        for k in ADDITIVE_SIZES
        for _ in range(ADDITIVE_REPEATS)
    ]
    mult = [
        _draw_with_target(rng, MULT_P, k, True)
        for k in MULT_SIZES
        for _ in range(MULT_REPEATS)
    ]
    cover = []
    for k in COVER_SIZES:
        for _ in range(COVER_REPEATS):
            while True:
                A = tuple(sorted(rng.sample(range(1, MULT_P), k)))
                B = tuple(sorted(rng.sample(range(1, MULT_P), k)))
                if exceptional_squares(A, B, MULT_P):
                    cover.append((A, B))
                    break
    main = []
    for _ in range(MAIN_SETS):
        A = tuple(sorted(rng.sample(range(1, MULT_P), MAIN_SIZE)))
        targets = symmetric_targets(A, MULT_P)
        main.append((A, tuple(sorted(rng.sample(targets, min(MAIN_TARGETS, len(targets)))))))
    interpolation = []
    feasibility = []
    for _ in range(GRID_REPEATS):
        for nx, ny in INTERPOLATION_GRIDS:
            X = tuple(rng.sample(range(GRID_P), nx))
            Y = tuple(rng.sample(range(GRID_P), ny))
            lines = tuple(
                (rng.randrange(1, GRID_P), rng.randrange(1, GRID_P), rng.randrange(GRID_P))
                for _ in range(nx + ny - 2)
            )
            interpolation.append((X, Y, lines))
        for nx, ny in FEASIBILITY_GRIDS:
            X = tuple(rng.sample(range(GRID_P), nx))
            Y = tuple(rng.sample(range(GRID_P), ny))
            feasibility.append((X, Y, (rng.choice(X), rng.choice(Y))))
    return {
        "additive": additive,
        "mult": mult,
        "tight": list(TIGHT_NS),
        "cover": cover,
        "main": main,
        "interpolation": interpolation,
        "feasibility": feasibility,
    }


# --------------------------------------------------------------------------
# computed operation counts (exact; they depend on the inputs alone)
# --------------------------------------------------------------------------


def gather_ops(inputs: dict) -> int:
    """Sum over A-masks of |A| x (number of B-masks), over the exhaustive pair sweeps."""
    total = 0
    for argv in inputs.get("sweeps", ()):
        theorem = argv[argv.index("--theorem") + 1]
        if theorem not in ("ks", "additive", "mult", "cover"):
            continue
        p = int(argv[argv.index("--prime") + 1])
        additive = theorem == "additive" or (theorem == "ks" and "add" in argv)
        m = p if additive else p - 1
        total += m * (1 << (m - 1)) * ((1 << m) - 1)
    return total


def feasibility_cells(inputs: dict) -> int:
    """Grid rows times monomials, over every feasibility check."""
    total = 0
    for X, Y, _ in inputs.get("feasibility", ()):
        for degree in (len(X) + len(Y) - 3, len(X) + len(Y) - 2):
            total += len(X) * len(Y) * (degree + 1) * (degree + 2) // 2
    return total


def profile_evals(cert) -> int:
    """|A| x |B| x (factors + 1) for one vanishing-profile replay of `cert`."""
    if not cert.lines:
        return 0
    factors = len(cert.lines) + (1 if cert.theorem in ("mult", "main") else 0)
    return len(cert.A) * len(cert.B) * (factors + 1)


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


@dataclass
class Outcome:
    ok: bool
    parts: list = field(default_factory=list)  # (kind, seconds, units)
    problem: str = ""
    profile_evals: int = 0  # computed: see profile_evals()


@dataclass
class Op:
    name: str
    fn: object  # () -> Outcome


def _sweep_op(nc, argv: list[str], kind: str, out_dir: Path, golden: dict) -> Op:
    key = golden_key(argv)
    path = out_dir / (hashlib.sha256(key.encode()).hexdigest()[:16] + ".json")

    def run() -> Outcome:
        path.unlink(missing_ok=True)
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = nc.cli.main(argv + ["--out", str(path)])
        elapsed = time.perf_counter() - start
        if code != 0:
            return Outcome(False, problem=f"{key}: exit code {code}")
        data = path.read_bytes()
        report = json.loads(data)
        units = report["totals"]["examined"]
        parts = [(kind, elapsed, units)]
        want = golden.get(key)
        if want is not None:
            got = hashlib.sha256(data).hexdigest()
            if got != want:
                return Outcome(False, parts, f"{key}: report digest {got} != recorded {want}")
        elif "--samples" in argv:
            samples = int(argv[argv.index("--samples") + 1])
            totals = report["totals"]
            if totals["counterexample_count"] or totals["contradictions"]:
                return Outcome(False, parts, f"{key}: report not ok")
            if units != samples:
                return Outcome(False, parts, f"{key}: examined {units} != {samples} draws")
        else:
            return Outcome(False, parts, f"{key}: no recorded digest")
        return Outcome(True, parts)

    return Op(" ".join(argv[2:5]), run)


def _certificate_op(nc, name: str, build) -> Op:
    """Times `build()`, which returns a certificate, then serializes it, parses
    it back and verifies the parsed copy."""

    def run() -> Outcome:
        start = time.perf_counter()
        cert = build()
        built = time.perf_counter() - start
        text = cert.to_json()
        start = time.perf_counter()
        parsed = nc.certify.Certificate.from_json(text)
        verdict = nc.certify.verify_certificate(parsed)
        verified = time.perf_counter() - start
        parts = [("built", built, 1), ("verified", verified, 1)]
        evals = 2 * profile_evals(cert)  # one replay when built, one when verified
        if cert.verdict not in (nc.certify.BOUND_CERTIFIED, nc.certify.DIRECTLY_SATISFIED):
            return Outcome(False, parts, f"{name}: verdict {cert.verdict}", evals)
        if verdict != (True, []):
            return Outcome(False, parts, f"{name}: verify_certificate gave {verdict}", evals)
        if parsed != cert:
            return Outcome(False, parts, f"{name}: JSON round trip changed the certificate", evals)
        return Outcome(True, parts, profile_evals=evals)

    return Op(name, run)


def tight_powers(nc, n: int) -> tuple:
    """Field and A = (w^0, ..., w^(n-1)) of `construct_tight_example(n)`; B is A[:-1].

    Built from `field` alone so that the proofs workload makes no call into
    `search`.
    """
    F = nc.field.find_prime_with_subgroup(2 * n - 4, start=3)
    w = nc.field.primitive_root_of_unity(F, 2 * n - 4).value
    return F, [pow(w, k, F.p) for k in range(n)]


def _proof_ops(nc, inputs: dict) -> list[Op]:
    ElementSet = nc.sets.ElementSet
    ADD = nc.sets.GroupMode.ADDITIVE
    MUL = nc.sets.GroupMode.MULTIPLICATIVE
    certify = nc.certify
    ops = []

    for A, B, c in inputs["additive"]:
        def build(A=A, B=B, c=c):
            F = nc.field.PrimeField(ADDITIVE_P)
            return certify.additive_cover_certificate(ElementSet(F, ADD, A), ElementSet(F, ADD, B), c)
        ops.append(_certificate_op(nc, f"additive |A|={len(A)}", build))

    for n in inputs["tight"]:
        def build(n=n):
            F, powers = tight_powers(nc, n)
            return certify.multiplicative_cover_certificate(
                ElementSet(F, MUL, powers), ElementSet(F, MUL, powers[: n - 1]), 1
            )
        ops.append(_certificate_op(nc, f"mult tight n={n}", build))

    for A, B, c in inputs["mult"]:
        def build(A=A, B=B, c=c):
            F = nc.field.PrimeField(MULT_P)
            return certify.multiplicative_cover_certificate(ElementSet(F, MUL, A), ElementSet(F, MUL, B), c)
        ops.append(_certificate_op(nc, f"mult |A|={len(A)}", build))

    for A, B in inputs["cover"]:
        def build(A=A, B=B):
            F = nc.field.PrimeField(MULT_P)
            return certify.hyperbola_cover_certificate(ElementSet(F, MUL, A), ElementSet(F, MUL, B))
        ops.append(_certificate_op(nc, f"cover |A|={len(A)}", build))

    for A, chosen in inputs["main"]:
        F = nc.field.PrimeField(MULT_P)
        A_set = ElementSet(F, MUL, A)
        expected = symmetric_targets(A, MULT_P)

        def targets_op(A_set=A_set, expected=expected) -> Outcome:
            start = time.perf_counter()
            found = list(nc.sets.symmetric_pair_elements(A_set, A_set).values)
            parts = [("built", time.perf_counter() - start, 0)]
            if found != expected:
                return Outcome(False, parts, f"symmetric_pair_elements gave {found}, want {expected}")
            return Outcome(True, parts)

        ops.append(Op("main targets", targets_op))
        for c in chosen:
            def build(A=A, c=c):
                F = nc.field.PrimeField(MULT_P)
                return certify.symmetric_pair_certificate(ElementSet(F, MUL, A), c)
            ops.append(_certificate_op(nc, f"main |A|={len(A)} c={c}", build))

    F = nc.field.PrimeField(GRID_P)
    poly = nc.poly
    for X, Y, lines in inputs["interpolation"]:
        def interpolate(X=X, Y=Y, lines=lines) -> Outcome:
            start = time.perf_counter()
            f = poly.line_product(F, lines)
            value = poly.top_coefficient_interpolation(f, X, Y)
            parts = [("grid", time.perf_counter() - start, 1)]
            direct = f.coefficient(len(X) - 1, len(Y) - 1)
            if value != direct:
                return Outcome(False, parts, f"interpolated {value} != coefficient {direct}")
            return Outcome(True, parts)
        ops.append(Op(f"interpolation {len(X)}x{len(Y)}", interpolate))

    for X, Y, point in inputs["feasibility"]:
        def feasibility(X=X, Y=Y, point=point) -> Outcome:
            low = len(X) + len(Y) - 3
            start = time.perf_counter()
            below = poly.min_degree_feasibility(X, Y, point, low, field=F)
            at = poly.min_degree_feasibility(X, Y, point, low + 1, field=F)
            parts = [("grid", time.perf_counter() - start, 2)]
            if below.feasible or not at.feasible:
                return Outcome(
                    False, parts,
                    f"feasibility {len(X)}x{len(Y)}: D={low} gave {below.feasible}, "
                    f"D={low + 1} gave {at.feasible}",
                )
            return Outcome(True, parts)
        ops.append(Op(f"feasibility {len(X)}x{len(Y)}", feasibility))
    return ops


def operations(nc, workload: str, inputs: dict, out_dir: Path, golden: dict) -> list[Op]:
    """The operations of one pass over `inputs`.

    `nc` is the imported nullcert package; modules are reached through it at
    call time so that traced replacements are picked up.
    """
    if workload == "pair-sweep":
        return [_sweep_op(nc, argv, "pairs", out_dir, golden) for argv in inputs["sweeps"]]
    if workload == "set-sweep":
        return [_sweep_op(nc, argv, "sets", out_dir, golden) for argv in inputs["sweeps"]] + [
            _sweep_op(nc, argv, "draws", out_dir, golden) for argv in inputs["hunts"]
        ]
    return _proof_ops(nc, inputs)
