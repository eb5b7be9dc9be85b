"""Set-up time in a fresh interpreter: `import nullcert` plus one tiny call
into each layer a workload uses.  Prints the seconds taken.

    python3 perfbench/setup_probe.py <workload> <src-dir>
"""

import contextlib
import io
import sys
import time


def tiny_calls(nc, workload: str) -> None:
    search = nc.search
    if workload in ("pair-sweep", "set-sweep"):
        import nullcert.cli

        nullcert.cli.build_parser()
        nc.field.smallest_generator(nc.field.PrimeField(5))
    if workload == "pair-sweep":
        report = search.exhaustive_verify(search.SweepConfig(theorem="additive", primes=(5,)))
        report.to_json()
    elif workload == "set-sweep":
        search.exhaustive_verify(search.SweepConfig(theorem="main", primes=(7,))).to_json()
        search.hunt_counterexample(
            search.SweepConfig(theorem="mult", primes=(7,), samples=10, seed=0)
        ).to_json()
        nc.sets.restricted_combine(*[nc.sets.ElementSet(
            nc.field.PrimeField(7), nc.sets.GroupMode.MULTIPLICATIVE, (1, 2, 3))] * 2)
    elif workload == "proofs":
        F = nc.field.find_prime_with_subgroup(4)
        add = nc.sets.GroupMode.ADDITIVE
        cert = nc.certify.additive_cover_certificate(
            nc.sets.ElementSet(F, add, (1, 2)), nc.sets.ElementSet(F, add, (2, 3)), 3
        )
        nc.certify.verify_certificate(nc.certify.Certificate.from_json(cert.to_json()))
        f = nc.poly.line_product(F, [(1, 1, 0)])
        nc.poly.top_coefficient_interpolation(f, [0, 1], [0, 1])
        nc.poly.min_degree_feasibility([0, 1], [0, 1], (0, 0), 2, field=F)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def main() -> None:
    workload, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import nullcert

    if not nullcert.__file__.startswith(src):
        raise SystemExit(f"imported nullcert from {nullcert.__file__}, not from {src}")
    with contextlib.redirect_stdout(io.StringIO()):
        tiny_calls(nullcert, workload)
    elapsed = time.perf_counter() - start
    print(repr(elapsed))


if __name__ == "__main__":
    main()
