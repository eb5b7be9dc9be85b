"""Command-line driver: sweeps, certificates, tight examples, coefficients.

Exit codes, stable for CI pipelines:

* 0 -- success (sweep clean, certificate established, file verified)
* 1 -- a counterexample was found / a certificate failed re-verification
* 2 -- configuration error (bad flags, bad sets, non-prime modulus, ...)
* 3 -- certificate hypothesis unmet

All randomness is surfaced through a mandatory ``--seed`` whenever
``--samples`` is used, and every command is deterministic given its full flag
set: rerunning writes byte-identical files.  Every ``verify`` run, exhaustive
or sampled, goes to `search.exhaustive_verify`, which checks the configuration
and forwards sampled runs to the hunt.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import certify, search
from .field import PrimeField, json_text
from .poly import BivariatePolynomial, top_coefficient_interpolation
from .sets import ElementSet, GroupMode


def _comma_ints(text: str, what: str, want: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"bad {what} {text!r}; want comma-separated {want}") from None


def _parse_residues(text: str, p: int) -> list[int]:
    values = _comma_ints(text, "set literal", "residues")
    for v in values:
        if not 0 <= v < p:
            raise ValueError(f"residue {v} out of range for GF({p})")
    return values


def _parse_primes(raw: list[str]) -> tuple[int, ...]:
    primes = [v for chunk in raw for v in _comma_ints(chunk, "--prime", "integers")]
    if not primes:
        raise ValueError("at least one --prime is required")
    return tuple(primes)


def _element_set(p: int, mode: GroupMode, literal: str) -> ElementSet:
    return ElementSet(PrimeField(p), mode, _parse_residues(literal, p))


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullcert",
        description="Restricted sumset/product-set bounds: sweeps and certificates over GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run an exhaustive or sampled verification sweep")
    verify.add_argument("--theorem", required=True, choices=search.ALL_THEOREMS)
    verify.add_argument("--prime", action="append", required=True,
                        help="prime modulus; repeatable or comma-separated")
    verify.add_argument("--mode", choices=["add", "mult"],
                        help="group mode (required for --theorem ks)")
    verify.add_argument("--exhaustive", action="store_true")
    verify.add_argument("--samples", type=int, help="sampled sweep with this many draws")
    verify.add_argument("--seed", type=int, help="PRNG seed (mandatory with --samples)")
    verify.add_argument("--max-size", type=int, help="only subsets up to this size")
    verify.add_argument("--jobs", type=int, default=1, help="worker processes")
    verify.add_argument("--partitions", type=int, default=1,
                        help="static sweep partitions (merge is deterministic)")
    verify.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET,
                        help="max work per exhaustive sweep, over the S masks within --max-size "
                             "and the empty one (S = 2^m unsized): S - 1 sets, or pairs (canonical "
                             "A's x B's) and, checked first, the m*phi(m)*S mask operations that "
                             "find the A-orbits; the default 2^26 admits the p = 17 pair sweeps "
                             "of mult, cover and ks --mode mult")
    verify.add_argument("--tight-cap", type=int, default=search.DEFAULT_TIGHT_CAP)
    verify.add_argument("--attach-certificates", action="store_true",
                        help="attach a certificate to each recorded tight instance")
    verify.add_argument("--out", help="report file path")
    verify.add_argument("--format", choices=["json", "csv"], help="report format with --out (default json)")

    cert = sub.add_parser("certificate", help="build one proof certificate")
    cert.add_argument("--theorem",
                      choices=[tag for tag, spec in certify.THEOREMS.items() if spec.build],
                      help="defaults to 'additive' or 'mult' from --mode")
    cert.add_argument("--mode", required=True, choices=["add", "mult"])
    cert.add_argument("--prime", type=int, required=True)
    cert.add_argument("--a", required=True, dest="set_a", help="set literal, e.g. 1,2,4")
    cert.add_argument("--b", dest="set_b", help="second set literal")
    cert.add_argument("--c", dest="target", type=int, help="target element")
    cert.add_argument("--out", help="certificate file path")

    reverify = sub.add_parser("reverify", help="re-check an emitted certificate file")
    reverify.add_argument("--in", dest="path", required=True)

    tight = sub.add_parser("tight", help="construct the extremal root-of-unity example")
    tight.add_argument("--n", type=int, required=True, help="size of A (n >= 3)")
    tight.add_argument("--format", choices=["text", "json"], default="text")
    tight.add_argument("--out")

    coeff = sub.add_parser("coefficient", help="grid-interpolate a top coefficient")
    coeff.add_argument("--prime", type=int, required=True)
    coeff.add_argument("--poly", required=True,
                       help="JSON file holding [[i, j, coeff], ...] triples")
    coeff.add_argument("--a", required=True, dest="set_a")
    coeff.add_argument("--b", required=True, dest="set_b")

    return parser


def _cmd_verify(args) -> int:
    if args.samples is None and not args.exhaustive:
        raise ValueError("choose --exhaustive or --samples N --seed S")
    if args.samples is not None and args.exhaustive:
        raise ValueError("--exhaustive and --samples are mutually exclusive")
    if args.format and not args.out:
        raise ValueError("--format needs --out")
    config = search.SweepConfig(
        theorem=args.theorem,
        primes=_parse_primes(args.prime),
        group_mode=GroupMode.parse(args.mode) if args.mode else None,
        max_set_size=args.max_size,
        samples=args.samples,
        seed=args.seed,
        partitions=args.partitions,
        budget=args.budget,
        tight_cap=args.tight_cap,
        attach_certificates=args.attach_certificates,
    )
    out = Path(args.out) if args.out else None
    if out and (out.is_dir() or not out.parent.is_dir()):
        raise ValueError(f"--out {out}: {'is a directory' if out.is_dir() else 'its directory does not exist'}")
    report = search.exhaustive_verify(config, jobs=args.jobs)
    if out:
        text = report.to_csv() if args.format == "csv" else report.to_json()
        out.write_text(text)
    replayed = certify.THEOREMS[args.theorem].replayed
    for stats in report.per_prime:
        print(
            f"p={stats.p}: examined={stats.examined} "
            f"hypothesis={stats.hypothesis_satisfying} "
            f"holding={stats.bound_holding} tight={stats.tight_count} "
            f"counterexamples={stats.counterexample_count}"
            + (f" contradictions={stats.contradictions}" if replayed else "")
        )
    print(
        f"{'OK' if report.ok() else 'COUNTEREXAMPLE'}: theorem={args.theorem} "
        f"wall={report.wall_time_s:.2f}s"
    )
    return 0 if report.ok() else 1


def _cmd_certificate(args) -> int:
    mode = GroupMode.parse(args.mode)
    theorem = args.theorem or ("additive" if mode is GroupMode.ADDITIVE else "mult")
    spec = certify.THEOREMS[theorem]
    if mode is not spec.mode:
        raise ValueError(f"theorem {theorem!r} needs --mode "
                         f"{'add' if spec.mode is GroupMode.ADDITIVE else 'mult'}")
    if theorem == "cover" and args.target is not None:
        raise ValueError("--theorem cover takes no --c")
    if theorem != "cover" and args.target is None:
        raise ValueError(f"--c is required for --theorem {theorem}")
    A = _element_set(args.prime, mode, args.set_a)
    if spec.pair:
        if args.set_b is None:
            raise ValueError("--b is required for pair certificates")
        B = _element_set(args.prime, mode, args.set_b)
    else:
        if args.set_b is not None and _element_set(args.prime, mode, args.set_b) != A:
            raise ValueError(f"--theorem {theorem} is a single-set bound; omit --b or repeat --a")
        B = A
    if args.target is not None:
        _element_set(args.prime, mode, str(args.target))  # --c must be a residue of the group
    cert = spec.build(A, B, args.target)
    _write_or_print(cert.to_json(), args.out)
    if args.out:
        print(f"{cert.verdict}: wrote {args.out}")
    return 0 if cert.verdict != certify.HYPOTHESIS_UNMET else 3


def _cmd_reverify(args) -> int:
    cert = certify.Certificate.from_json(Path(args.path).read_text())
    ok, problems = certify.verify_certificate(cert)
    if ok:
        print(f"valid: {cert.theorem} certificate, verdict {cert.verdict}")
        return 0
    for problem in problems:
        print(f"invalid: {problem}", file=sys.stderr)
    return 1


def _cmd_tight(args) -> int:
    example = search.construct_tight_example(args.n)
    data = example.to_json_dict()
    if args.format == "json":
        text = json_text(data)
    else:
        text = "".join(f"{key} = {value}\n" for key, value in data.items())
    _write_or_print(text, args.out)
    return 0


def _cmd_coefficient(args) -> int:
    field = PrimeField(args.prime)
    triples = json.loads(Path(args.poly).read_text())
    f = BivariatePolynomial.from_triples(field, triples)
    avals = _parse_residues(args.set_a, field.p)
    bvals = _parse_residues(args.set_b, field.p)
    result = top_coefficient_interpolation(f, [field.element(v) for v in avals],
                                           [field.element(v) for v in bvals])
    direct = f.coefficient(len(avals) - 1, len(bvals) - 1)
    print(f"coefficient: {result.value}")
    print(f"direct: {direct.value}")
    if result != direct:
        raise AssertionError(
            f"interpolated {result.value} != direct {direct.value}; "
            "coefficient machinery broken"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    handlers = {
        "verify": _cmd_verify,
        "certificate": _cmd_certificate,
        "reverify": _cmd_reverify,
        "tight": _cmd_tight,
        "coefficient": _cmd_coefficient,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except certify.TheoremContradictionError as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
