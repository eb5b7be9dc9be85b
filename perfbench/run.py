#!/usr/bin/env python3
"""nullcert benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {pair-sweep,set-sweep,proofs,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree; the package is imported from its
`src/` directory, in this process, on one thread.  A run makes one pass over
the workload, and another for as long as the next should end within
`--seconds`, and reports medians over passes.

* ``--trace 0`` measures with tracing off and reports the end-to-end metrics
  named in BENCHMARK.json, after timing set-up in fresh interpreters; pass
  and set-up times are also scaled to a reference machine speed by the
  probes in probe.py (``wall_ref_s``, ``setup_s``).
* ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics named in BENCHMARK.json, medians over traced passes;
  ``trace.overhead_frac`` is the median of traced / untraced pass time - 1.  Spans are written to
  ``.bench_out/spans-<workload>-seed<N>.jsonl.gz``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Every
result is also written, with the stamp of the machine and the source, to
``.bench_out/result-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PROBES_PER_PASS = 2
PROBE_TIMEOUT_S = 60

# throughput printed for each timed kind of work (see workloads.py)
KIND_METRICS = {
    "pairs": ("pairs_per_s", "pairs/s"),
    "sets": ("sets_per_s", "sets/s"),
    "draws": ("samples_per_s", "draws/s"),
    "built": ("certs_built_per_s", "certs/s"),
    "verified": ("certs_verified_per_s", "certs/s"),
    "grid": ("grid_checks_per_s", "checks/s"),
}


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def load_package():
    if not (SRC / "nullcert" / "__init__.py").is_file():
        raise BenchError(f"no nullcert package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nullcert
    import nullcert.cli

    if not nullcert.__file__.startswith(str(SRC)):
        raise BenchError(f"imported nullcert from {nullcert.__file__}, not from {SRC}")
    return nullcert


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())


def stamp() -> dict:
    import numpy

    revision = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if done.returncode == 0:
            revision = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "nullcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_setup(workload: str) -> float:
    """Seconds of set-up in a fresh interpreter (see setup_probe.py)."""
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(SRC)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up probe took over {PROBE_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def setup_sample(workload: str, kind: str) -> tuple[float, float]:
    """Set-up seconds, as measured and at the reference speed of the `kind` probe."""
    before = probe.slowdown(kind)
    seconds = measure_setup(workload)
    return seconds, probe.at_ref_speed(seconds, before, probe.slowdown(kind))


def run_pass(ops, tracer=None, clock=None) -> tuple[list[float], list]:
    """One pass over `ops`; returns each op's wall time and Outcome.  A
    `probe.Clock` given as `clock` is handed each op's time."""
    times, outcomes = [], []
    for index, op in enumerate(ops):
        start = time.perf_counter()
        try:
            outcome = tracer.run(index, op.name, op.fn) if tracer else op.fn()
        except Exception:
            outcome = workloads.Outcome(False, problem=f"{op.name}: {traceback.format_exc()}")
        times.append(time.perf_counter() - start)
        outcomes.append(outcome)
        if clock:
            clock.add(times[-1], last=index == len(ops) - 1)
    return times, outcomes


def repeat(one_pass, seconds: float) -> list:
    """Results of `one_pass()`: one call, and more while the next should end within `seconds`."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(one_pass())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return results


def pass_rates(outcomes) -> dict[str, float]:
    seconds: Counter = Counter()
    units: Counter = Counter()
    for outcome in outcomes:
        for kind, elapsed, count in outcome.parts:
            seconds[kind] += elapsed
            units[kind] += count
    return {KIND_METRICS[k][0]: units[k] / seconds[k] for k in seconds if seconds[k] > 0}


def median_of(dicts: list[dict]) -> dict[str, float]:
    keys = set().union(*dicts)
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


def measure(args, nc, spec: dict) -> dict:
    inputs = workloads.generate(args.workload, args.seed)
    golden = json.loads((BENCH / "golden.json").read_text())
    report_dir = OUT / "reports"
    report_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.operations(nc, args.workload, inputs, report_dir, golden)

    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    all_outcomes = []
    if args.trace:
        tracer = tracing.Tracer()

        def untraced_then_traced():
            untraced = run_pass(ops)
            with tracer.installed():
                traced = run_pass(ops, tracer)
            return untraced, traced, tracer.reset()

        layers = []
        walls = []
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        with gzip.open(spans_path, "wt") as sink:
            for number, (untraced, traced, spans) in enumerate(
                repeat(untraced_then_traced, args.seconds)
            ):
                all_outcomes += untraced[1] + traced[1]
                walls.append([sum(untraced[0]), sum(traced[0])])
                figures = tracing.layer_metrics(spans)
                figures["search.gather_ops"] = workloads.gather_ops(inputs)
                figures["certify.profile_evals"] = sum(o.profile_evals for o in traced[1])
                figures["poly.feasibility_cells"] = workloads.feasibility_cells(inputs)
                layers.append(figures)
                for span in spans:
                    sink.write(json.dumps([number] + span) + "\n")
        metrics = median_of(layers)
        metrics["trace.overhead_frac"] = statistics.median(t / u - 1 for u, t in walls)
        result["pass_wall_s"] = walls  # [untraced, traced] per pair of passes
        result["spans"] = str(spans_path.relative_to(ROOT))
        wanted = spec["per_layer"]
    else:
        measure_setup(args.workload)  # warm-up, unmeasured: byte-compiles the sources
        kind = workloads.PROBE_KIND[args.workload]
        probe.slowdown(kind)  # warm-up, unmeasured

        def pass_then_setup():
            clock = probe.Clock(kind)
            times, outcomes = run_pass(ops, clock=clock)
            # set-up samples follow each pass, so they sample the whole run
            setup = [setup_sample(args.workload, kind) for _ in range(PROBES_PER_PASS)]
            return times, outcomes, clock, setup

        runs = repeat(pass_then_setup, args.seconds)
        for _, outcomes, _, _ in runs:
            all_outcomes += outcomes
        setup = [sample for *_, samples in runs for sample in samples]
        metrics = median_of([pass_rates(outcomes) for _, outcomes, _, _ in runs])
        metrics["wall_s"] = statistics.median(sum(times) for times, *_ in runs)
        metrics["wall_ref_s"] = statistics.median(clock.ref_s for *_, clock, _ in runs)
        metrics["setup_wall_s"] = statistics.median(seconds for seconds, _ in setup)
        metrics["setup_s"] = statistics.median(ref for _, ref in setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["op_wall_s"] = [times for times, *_ in runs]  # per pass, per op
        result["slowdowns"] = {"kind": kind, "per_pass": [clock.slowdowns for *_, clock, _ in runs]}
        result["setup_samples_s"] = setup  # [as measured, at reference speed]
        wanted = spec["end_to_end"]

    failed = [o for o in all_outcomes if not o.ok]
    metrics["error_rate"] = len(failed) / len(all_outcomes)
    for outcome in failed:
        print(f"FAILED {outcome.problem}", file=sys.stderr)
    result.update(
        attempted=len(all_outcomes),
        failed=len(failed),
        all_metrics=metrics,
        units={m["name"]: m["unit"] for m in wanted},
    )
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result["metrics"] = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
    }
    return result


def print_result(result: dict) -> None:
    units = dict(result["units"])
    units.update(error_rate="fraction", wall_s="s", setup_wall_s="s")
    units.update(dict(KIND_METRICS.values()))
    print(f"# workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print(f"# stamp {json.dumps(result['stamp'], sort_keys=True)}")
    for name, value in sorted(result["all_metrics"].items()):
        print(f"{name:34s} {value:16.6g} {units.get(name, '')}")


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {done.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        nc = load_package()
        if args.workload == "all":
            return run_all(args)
        OUT.mkdir(exist_ok=True)
        result = measure(args, nc, spec)
        result["stamp"] = stamp()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print_result(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
