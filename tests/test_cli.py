import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nullcert
from nullcert import certify, cli, search
from nullcert.cli import main
from nullcert.field import PrimeField
from nullcert.poly import BivariatePolynomial, line_product
from nullcert.sets import ElementSet, GroupMode

from conftest import combine_oracle


def run(argv):
    return main(argv)


def test_parser_is_built_once_and_parses_each_call_afresh(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_cmd_verify", lambda args: seen.append(args) or 0)
    assert run(["verify", "--theorem", "mult", "--prime", "7", "--prime", "11,13", "--exhaustive"]) == 0
    assert run(["verify", "--theorem", "mult", "--prime", "17", "--samples", "3", "--seed", "1"]) == 0
    assert [args.prime for args in seen] == [["7", "11,13"], ["17"]]
    assert (seen[0].exhaustive, seen[0].samples, seen[1].exhaustive, seen[1].samples) == (True, None, False, 3)
    assert cli.build_parser() is cli.build_parser()


# ------------------------------------------------------------------ verify


def test_verify_exhaustive_ok(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--theorem", "mult", "--prime", "7", "--exhaustive",
                "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["totals"]["counterexample_count"] == 0
    assert data["config"]["theorem"] == "mult"
    assert data["config"]["budget"] == search.DEFAULT_BUDGET
    assert "OK" in capsys.readouterr().out


def test_verify_nonprime_is_config_error(capsys):
    assert run(["verify", "--theorem", "main", "--prime", "9", "--exhaustive"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_verify_requires_sweep_choice():
    assert run(["verify", "--theorem", "mult", "--prime", "7"]) == 2


def test_verify_samples_need_seed():
    assert run(["verify", "--theorem", "cover", "--prime", "7", "--samples", "50"]) == 2


def test_verify_ks_needs_mode():
    assert run(["verify", "--theorem", "ks", "--prime", "5", "--exhaustive"]) == 2
    assert run(["verify", "--theorem", "ks", "--prime", "5", "--mode", "add",
                "--exhaustive"]) == 0


def test_verify_bad_jobs_and_seeds_exit_2_with_one_line(capsys):
    sweep = ["verify", "--theorem", "mult", "--prime", "7"]
    for extra, word in [
        (["--exhaustive", "--jobs", "0", "--partitions", "2"],
         "error: jobs must be between 1 and partitions (2); got 0\n"),
        (["--exhaustive", "--jobs", "-3"], "error: jobs must be between 1 and partitions (1); got -3\n"),
        (["--samples", "10", "--seed", "1", "--jobs", "0"], "partitions (1); got 0"),
        (["--exhaustive", "--jobs", "2"], "partitions (1); got 2"),
        (["--exhaustive", "--jobs", "3", "--partitions", "2"], "partitions (2); got 3"),
        (["--exhaustive", "--partitions", "0"], "partitions must be >= 1"),
        (["--samples", "10", "--seed", "1", "--jobs", "2"], "partitions (1); got 2"),
        (["--samples", "10", "--seed", "-5"], "seed"),
        (["--samples", "10", "--seed", "18446744073709551617"], "seed"),
        (["--prime", "7", "--samples", "200", "--seed", "1"], "repeated prime"),
        (["--exhaustive", "--samples", "10", "--seed", "1"], "mutually exclusive"),
        (["--exhaustive", "--seed", "5"], "error: exhaustive sweeps take no seed\n"),
    ]:
        capsys.readouterr()
        assert run(sweep + extra) == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("error: ") and word in err, err
        assert err.count("\n") == 1, err
    assert run(sweep + ["--samples", "10", "--seed", "18446744073709551615"]) == 0


def test_verify_sampled_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", "--theorem", "cover", "--prime", "7", "--samples", "1000",
            "--seed", "42"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


GOLDEN = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("key", [
    key for key in GOLDEN
    if re.search(r"--exhaustive|--seed [0-3] ", key)
])
def test_verify_reports_match_the_benchmark_digests(key, tmp_path):
    out = tmp_path / "report.json"
    assert run(key.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[key]


# sized sweeps, recorded at the commit before the mask list replaced the
# 2^m-mask passes; the additive one needed a raised budget there
SIZED_GOLDEN = {
    "verify --theorem additive --prime 19 --max-size 3 --budget 1073741824 --exhaustive":
        "ad6e9488ade347f2feb4fbcd506470a06c7484d289adcd3b16b87ad5f2bac70c",
    "verify --theorem cover --prime 17 --max-size 4 --exhaustive":
        "ba5bd870e7b940f3e7d1bfeafcaca7f47567e733401ecebbee834a9c83309e5c",
    "verify --theorem main --prime 19 --max-size 5 --exhaustive":
        "d1b19d6db45fa1a70f081f49a57e3779e33f8d44ede089d77a9d76d07aa31e27",
    # either side of the 32-bit mask dtype, m = 31 (uint32) and m = 36
    # (uint64), 2,048 tight entries each; recorded at the commit before the
    # listed rows were mapped and unpacked as arrays
    "verify --theorem additive --prime 31 --max-size 3 --exhaustive":
        "f1921ffc606424297943910c8e53454266a2d57514de5a93d7602bd3a0fe2919",
    "verify --theorem ks --mode mult --prime 37 --max-size 3 --exhaustive":
        "2acbb27b4ca65c893f488a4175e3bf6ff81a01a6a967f8e7a17721d08079f902",
}


@pytest.mark.parametrize("key", SIZED_GOLDEN)
def test_sized_sweep_reports_match_recorded_digests(key, tmp_path):
    out = tmp_path / "report.json"
    assert run(key.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIZED_GOLDEN[key]


# sampled hunts whose draws stress the word parse: uint64 masks, size caps at
# or near m (coupon-collector draws), an uncapped hunt, and one word stream
# across primes either side of the 63-bit line; recorded at the commit before
# the draws were parsed from the words as arrays
HUNT_GOLDEN = {
    "verify --theorem mult --prime 61 --samples 20000 --seed 3 --max-size 8":
        "33ba4a5195e1db8b40ea098e5176a39d6a1f1ce84a8cdcc627a939b81ea10d4a",
    "verify --theorem additive --prime 61 --samples 4000 --seed 3 --max-size 61":
        "9258485ccf03e220e14adf1120fcff73e781b31ab3ab8ba1b28021c06f4e880b",
    "verify --theorem main --prime 37 --samples 20000 --seed 3 --max-size 36":
        "53b9b9114f0d29ff3ac02dc9b28e454540db3ece3a34fc5519b6317d8f5fb151",
    "verify --theorem cover --prime 31 --samples 20000 --seed 3":
        "f07e37d6f0099362e8a54a797b19aacb428ca6c23bcbfe9fe14eb3e0b80fab83",
    "verify --theorem mult --prime 31,67,13 --samples 3000 --seed 7 --max-size 6":
        "9ddb51020fc9936aa50238483f0fcb3770f1331328d74710f018eba2cf3b71e3",
}


@pytest.mark.parametrize("key", HUNT_GOLDEN)
def test_hunt_reports_match_recorded_digests(key, tmp_path):
    out = tmp_path / "report.json"
    assert run(key.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HUNT_GOLDEN[key]


# sweeps whose mask lists span several kernel blocks (`search._BLOCK`), which
# the golden.json sweeps (p <= 13) never do; recorded at the commit before
# the pair kernel and the orbit search ran one block at a time
MULTI_BLOCK_GOLDEN = {
    "verify --theorem mult --prime 17 --exhaustive":
        "d2aed1332e8359f69c18030ec185e3e170a5e5d8546f79de8f928100658505d0",
    "verify --theorem cover --prime 17 --exhaustive":
        "8b9b1fc7e5cb5720ebd95290a9ec309d8582ff82b9638b102aa285af24b9e10d",
    "verify --theorem cover --prime 61 --max-size 3 --exhaustive":
        "96ad53f6c219b4f75cc8ed63d8f48fd3beb7b6cca03e8f6b7bd6d5e73c7ed94d",
    "verify --theorem corollary-add --prime 19 --exhaustive":
        "c70ef6f2a30dc70466d5f61c518e2cd84212c572327da6abeb1158f9dbe352dd",
    # unsized sweeps past one block of every kind that the incremental kernel
    # counts, recorded at the commit before it
    "verify --theorem additive --prime 17 --exhaustive --budget 134217728":
        "76cc4079215eb8a6dc3ee72d5d3c3acd44f61008bf22d627fda96c2e95ef735d",
    "verify --theorem ks --mode add --prime 17 --exhaustive --budget 134217728":
        "dae6b05cb24304f02c11bb3e0e379e7d2482890fab15932263b278138fc32119",
    "verify --theorem ks --mode mult --prime 17 --exhaustive":
        "edd3e1b7ab7835c1e38b32f4da231be81d3a7e61a18fa44bd6c266097885fe9f",
    "verify --theorem corollary-mult --prime 19 --exhaustive":
        "dc5dc9c6d6f0f1a7cc8bfd185a6c5aa7ef21ed3ebe93103ba31abf0f68240d82",
    "verify --theorem corollary-add --prime 23 --exhaustive":
        "811bfc593e3d6a745cc9b3094af8124a2cea0590face97fd2e96e4a58326192a",
    # the frontier record's form of the `cover` p = 17 sweep: each canonical
    # A's B range spans four windows of the pair kernel
    "verify --theorem cover --prime 17 --exhaustive --jobs 1 --budget 4294967296":
        "8341f6813b0ffd31cdcf0ee2afe7d16e22b460b5ff4e06b8f65b7d14e7eb0730",
}


@pytest.mark.parametrize("key", MULTI_BLOCK_GOLDEN)
def test_multi_block_sweep_reports_match_recorded_digests(key, tmp_path):
    out = tmp_path / "report.json"
    assert run(key.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MULTI_BLOCK_GOLDEN[key]


@pytest.mark.parametrize("argv", [
    ["--theorem", "additive", "--prime", "23", "--max-size", "3"],
    ["--theorem", "main", "--prime", "31", "--max-size", "4"],
    ["--theorem", "cover", "--prime", "61", "--max-size", "3"],
])
def test_sized_sweeps_run_at_the_default_budget(argv, capsys):
    # the work follows the masks within --max-size, not 2^m
    started = time.monotonic()
    assert run(["verify", "--exhaustive"] + argv) == 0
    assert time.monotonic() - started < 5
    assert capsys.readouterr().out.startswith(f"p={argv[3]}: examined=")


def test_verify_refuses_an_exhaustive_sweep_past_63_bits(capsys):
    assert run(["verify", "--theorem", "main", "--prime", "67", "--max-size", "2", "--exhaustive"]) == 2
    assert capsys.readouterr().err == (
        "error: exhaustive sweep at p = 67 needs 66-bit masks; at most 63 are supported\n"
    )


@pytest.mark.parametrize("theorem,m", [("additive", 100003), ("main", 100002), ("mult", 100002)])
def test_verify_refuses_an_exhaustive_sweep_at_a_huge_prime_in_one_line(theorem, m, capsys):
    # the 63-bit limit is checked before the budget, whose count would run
    # to 30,000 digits
    assert run(["verify", "--theorem", theorem, "--prime", "100003", "--exhaustive"]) == 2
    assert capsys.readouterr().err == (
        f"error: exhaustive sweep at p = 100003 needs {m}-bit masks; at most 63 are supported\n"
    )


@pytest.mark.parametrize("theorem,p", [("mult", 61), ("additive", 31)])
def test_verify_refuses_an_out_of_budget_pair_sweep_at_once(theorem, p, capsys):
    # the orbit search alone needs m * phi(m) * 2^m mask operations, which
    # the budget refuses before anything of size 2^m is allocated
    started = time.monotonic()
    assert run(["verify", "--theorem", theorem, "--prime", str(p), "--exhaustive"]) == 2
    assert time.monotonic() - started < 0.5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "budget" in err


@pytest.mark.parametrize("argv,word", [
    (["--theorem", "mult", "--prime", "17,9", "--exhaustive"], "9 is not prime"),
    (["--theorem", "additive", "--prime", "17,19", "--exhaustive", "--budget", "134217728"],
     "p = 19 needs"),
    (["--theorem", "mult", "--prime", "61,9", "--samples", "200000", "--seed", "1"],
     "9 is not prime"),
    (["--theorem", "mult", "--prime", ",", "--exhaustive"], "at least one --prime"),
    (["--theorem", "mult", "--prime", "7", "--exhaustive", "--budget", "10"], "budget"),
])
def test_verify_refuses_a_bad_later_prime_before_any_sweep(argv, word, capsys, monkeypatch):
    # every prime is checked, with the first budget step of an exhaustive
    # sweep, before the first prime is swept
    def no_sweep(*args):
        raise AssertionError("a prime was swept before the configuration was refused")

    monkeypatch.setattr(search, "_Universe", no_sweep)
    started = time.monotonic()
    assert run(["verify"] + argv) == 2
    assert time.monotonic() - started < 0.5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and word in err and err.count("\n") == 1, err


@pytest.mark.parametrize("out,word", [("missing/r.json", "its directory does not exist"), (".", "is a directory")])
def test_verify_refuses_a_bad_out_before_any_sweep(out, word, tmp_path, capsys, monkeypatch):
    # a report that could not be written would throw the finished sweep away
    def no_sweep(*args):
        raise AssertionError("a prime was swept before --out was refused")

    monkeypatch.setattr(search, "_Universe", no_sweep)
    path = tmp_path / out
    assert run(["verify", "--theorem", "mult", "--prime", "7", "--exhaustive", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out {path}: {word}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("prime", ["x", "7,x", "7.5"])
def test_verify_names_the_flag_of_a_bad_prime(prime, capsys):
    assert run(["verify", "--theorem", "mult", "--prime", prime, "--exhaustive"]) == 2
    assert capsys.readouterr().err == (
        f"error: bad --prime {prime!r}; want comma-separated integers\n"
    )


def test_verify_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["verify", "--theorem", "additive", "--prime", "5", "--prime", "7",
                "--exhaustive", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("theorem,p,")
    assert len(lines) == 3


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_format_needs_out(fmt, tmp_path, capsys, monkeypatch):
    # without --out no report is written, so --format would change nothing
    monkeypatch.chdir(tmp_path)
    assert run(["verify", "--theorem", "mult", "--prime", "7", "--exhaustive", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --format needs --out\n" and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sweep", [["--exhaustive"], ["--samples", "200", "--seed", "3"]])
def test_verify_validates_the_config_once(sweep, monkeypatch):
    calls = []
    validate = search.SweepConfig.validate

    def counted(config):
        calls.append(config)
        validate(config)

    monkeypatch.setattr(search.SweepConfig, "validate", counted)
    assert run(["verify", "--theorem", "main", "--prime", "7,11"] + sweep) == 0
    assert len(calls) == 1


# -------------------------------------------------------------- certificate


def test_certificate_default_theorem_from_mode(tmp_path):
    out = tmp_path / "cert.json"
    code = run(["certificate", "--mode", "mult", "--prime", "7",
                "--a", "1,2", "--b", "2,3", "--c", "3", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["theorem"] == "mult"
    assert data["verdict"] == "BoundCertified"
    assert data["exceptional"] == [1, 5]


def test_certificate_hypothesis_unmet_exit_code(tmp_path):
    out = tmp_path / "cert.json"
    code = run(["certificate", "--theorem", "cover", "--mode", "mult", "--prime", "7",
                "--a", "1,2,4", "--b", "1,2,4", "--out", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["verdict"] == "HypothesisUnmet"


def test_certificate_reverify_round_trip(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certificate", "--mode", "add", "--prime", "7",
                "--a", "0,1", "--b", "1,2", "--c", "1", "--out", str(out)]) == 0
    original = out.read_bytes()
    assert run(["reverify", "--in", str(out)]) == 0
    assert out.read_bytes() == original


def test_certificate_main_single_set(tmp_path):
    out = tmp_path / "cert.json"
    code = run(["certificate", "--theorem", "main", "--mode", "mult", "--prime", "7",
                "--a", "2,3", "--c", "6", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "DirectlySatisfied"
    assert data["summands"] == [1, 6]
    # --b may repeat the set in any order
    assert run(["certificate", "--theorem", "main", "--mode", "mult", "--prime", "7",
                "--a", "3,2", "--b", "2,3", "--c", "6", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == data
    assert run(["certificate", "--theorem", "main", "--mode", "mult", "--prime", "7",
                "--a", "2,3", "--b", "2,4", "--c", "6"]) == 2


def test_certificate_contradiction_exits_1_with_one_line(monkeypatch, capsys):
    # with the main offset lowered to 2, A = {1, 2, 4} at p = 13 violates
    # the bound with distinct (n-2)-th powers, so the builder raises
    monkeypatch.setitem(certify.THEOREMS, "main",
                        dataclasses.replace(certify.THEOREMS["main"], offset=2))
    capsys.readouterr()
    assert run(["certificate", "--theorem", "main", "--mode", "mult", "--prime", "13",
                "--a", "1,2,4", "--c", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("counterexample: ") and captured.err.count("\n") == 1, captured.err
    assert captured.out == ""


@pytest.mark.parametrize("n", [34, 60])
def test_main_contradiction_replay_of_a_long_progression(n, monkeypatch, capsys):
    # A = the first n powers of the primitive root 3 mod 257: the replayed
    # line product has degree past 64, and still ends in the contradiction
    monkeypatch.setitem(certify.THEOREMS, "main",
                        dataclasses.replace(certify.THEOREMS["main"], offset=2))
    powers = ",".join(str(pow(3, k, 257)) for k in range(n))
    capsys.readouterr()
    assert run(["certificate", "--theorem", "main", "--mode", "mult", "--prime", "257",
                "--a", powers, "--c", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("counterexample: ") and captured.err.count("\n") == 1, captured.err


def test_certificate_config_errors(tmp_path, capsys):
    assert run(["certificate", "--mode", "mult", "--prime", "7",
                "--a", "1,2", "--c", "3"]) == 2  # pair theorem needs --b
    assert run(["certificate", "--mode", "mult", "--prime", "7",
                "--a", "0,2", "--b", "1,2", "--c", "2"]) == 2  # 0 not a unit
    assert run(["certificate", "--theorem", "additive", "--mode", "mult",
                "--prime", "7", "--a", "1", "--b", "2", "--c", "3"]) == 2
    assert run(["certificate", "--mode", "mult", "--prime", "7",
                "--a", "1,9", "--b", "1,2", "--c", "2"]) == 2  # out of range
    capsys.readouterr()
    assert run(["certificate", "--mode", "mult", "--prime", "7",
                "--a", "1,x", "--b", "1,2", "--c", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad set literal") and err.count("\n") == 1, err
    # --c is checked like --a and --b: a residue of the group, never reduced
    for mode, target, word in [("mult", "12", "out of range"), ("mult", "0", "cannot contain 0"),
                               ("add", "7", "out of range"), ("mult", "-1", "out of range")]:
        assert run(["certificate", "--mode", mode, "--prime", "7",
                    "--a", "1,2", "--b", "2,3", "--c", target]) == 2, (mode, target)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and word in err and err.count("\n") == 1, err


def test_certificate_cover_refuses_a_target(capsys):
    # cover takes no target: a --c is refused, not silently dropped
    assert run(["certificate", "--theorem", "cover", "--mode", "mult", "--prime", "7",
                "--a", "1,2", "--b", "2,3", "--c", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --theorem cover takes no --c\n" and captured.out == ""


@pytest.mark.parametrize("argv,theorem", [
    (["--theorem", "additive", "--mode", "add", "--a", "0,1", "--b", "1,2"], "additive"),
    (["--mode", "add", "--a", "0,1", "--b", "1,2"], "additive"),
    (["--theorem", "mult", "--mode", "mult", "--a", "1,2", "--b", "2,3"], "mult"),
    (["--theorem", "main", "--mode", "mult", "--a", "2,3"], "main"),
])
def test_certificate_without_a_needed_target_names_the_flag(argv, theorem, capsys):
    assert run(["certificate", "--prime", "7"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --c is required for --theorem {theorem}\n" and captured.out == ""


def test_reverify_detects_tampering(tmp_path):
    out = tmp_path / "cert.json"
    run(["certificate", "--mode", "mult", "--prime", "7",
         "--a", "1,2", "--b", "2,3", "--c", "3", "--out", str(out)])
    data = json.loads(out.read_text())
    data["tight"] = True
    out.write_text(json.dumps(data))
    assert run(["reverify", "--in", str(out)]) == 1


def test_reverify_of_a_theorem_without_certificates_fails(tmp_path, capsys):
    data = _cert_json(tmp_path)
    data["theorem"] = "ks"
    path = tmp_path / "ks.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["reverify", "--in", str(path)]) == 1
    assert "no certificate exists for theorem tag 'ks'" in capsys.readouterr().err


def test_reverify_missing_file():
    assert run(["reverify", "--in", "/nonexistent/cert.json"]) == 2


def _cert_json(tmp_path):
    out = tmp_path / "cert.json"
    run(["certificate", "--mode", "mult", "--prime", "7",
         "--a", "1,2", "--b", "2,3", "--c", "3", "--out", str(out)])
    return json.loads(out.read_text())


def test_reverify_malformed_input_exits_2_with_one_line(tmp_path, capsys):
    without_a = _cert_json(tmp_path)
    del without_a["A"]
    empty_exceptional = _cert_json(tmp_path)
    empty_exceptional["exceptional"] = []
    unknown_key = _cert_json(tmp_path)
    unknown_key["proof"] = "trust me"
    nested_single_point = _cert_json(tmp_path)
    nested_single_point["exceptional"] = [[1, 2]]
    capsys.readouterr()
    for name, data in [
        ("array.json", [1, 2, 3]),
        ("empty.json", {}),
        ("empty_exceptional.json", empty_exceptional),
        ("without_a.json", without_a),
        ("unknown_key.json", unknown_key),
        ("nested_single_point.json", nested_single_point),
    ]:
        path = tmp_path / name
        path.write_text(json.dumps(data))
        assert run(["reverify", "--in", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: malformed certificate: "), err
        assert err.count("\n") == 1, err
    not_json = tmp_path / "not_json.json"
    not_json.write_text('{"theorem": "mult",')
    assert run(["reverify", "--in", str(not_json)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {not_json}: Expecting"), err
    assert err.count("\n") == 1, err


# -------------------------------------------------------------------- tight


def test_tight_json_output(tmp_path):
    out = tmp_path / "tight.json"
    assert run(["tight", "--n", "4", "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["p"] == 5 and data["w"] == 2
    assert data["A"] == [1, 2, 3, 4] and data["B"] == [1, 2, 4]
    assert data["product_size"] == 4
    assert data["unique_representation"] == [3, 2]


def test_tight_text_output(capsys):
    assert run(["tight", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "p = 7" in out and "w = 3" in out


def test_tight_degenerate_and_usage_error(capsys):
    assert run(["tight", "--n", "3"]) == 0
    assert "degenerate = True" in capsys.readouterr().out
    for n in ("2", "-4"):
        assert run(["tight", "--n", n]) == 2
        err = capsys.readouterr().err
        assert err == "error: tight example needs n >= 3\n", err


def test_tight_output_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
    run(["tight", "--n", "6", "--format", "json", "--out", str(out1)])
    run(["tight", "--n", "6", "--format", "json", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("argv", [
    *(["tight", "--n", str(n), "--format", "json"] for n in (3, 4, 9, 32)),
    ["certificate", "--mode", "mult", "--prime", "7", "--a", "1,2", "--b", "2,3", "--c", "3"],
    ["certificate", "--theorem", "cover", "--mode", "mult", "--prime", "13", "--a", "1,2,3,5", "--b", "2,3,5,7"],
    ["certificate", "--theorem", "main", "--mode", "mult", "--prime", "13", "--a", "1,3,9,5", "--c", "6"],
    ["verify", "--theorem", "cover", "--prime", "7", "--exhaustive", "--tight-cap", "20", "--attach-certificates"],
    *(["verify", "--theorem", theorem, "--prime", p, "--exhaustive", "--attach-certificates"]
      for theorem, p in (("additive", "11"), ("mult", "11"), ("main", "13"))),
])
def test_json_files_are_the_stdlib_indented_form(argv, tmp_path):
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) in (0, 3)
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


# -------------------------------------------------------------- coefficient


def test_coefficient_command(tmp_path, capsys):
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps([[1, 1, 1]]))  # f = xy
    code = run(["coefficient", "--prime", "7", "--poly", str(poly_file),
                "--a", "1,2", "--b", "3,4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "coefficient: 1" in out and "direct: 1" in out


def test_coefficient_degree_violation(tmp_path, capsys):
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps([[2, 2, 1]]))  # degree 4 > 2x2 grid bound
    code = run(["coefficient", "--prime", "7", "--poly", str(poly_file),
                "--a", "1,2", "--b", "3,4"])
    assert code == 2
    assert "degree" in capsys.readouterr().err


def test_coefficient_malformed_input_exits_2_with_one_line(tmp_path, capsys):
    poly_file = tmp_path / "poly.json"
    cases = [(text, "1,2", "polynomial") for text in ("5", "null", "[1]", "[[1.5,0,1]]",
                                                      "[[0,0,true]]", "[[1,1]]", "{}")]
    cases += [("[[1,1,1]]", a, "out of range") for a in ("1,7", "-1,2")]
    cases += [("[[1,1,2],[1,1,3]]", "1,2", "repeats the monomial [1, 1]"),
              ("[[1,1,2]", "1,2", f"error: {poly_file}: Expecting")]  # the file is named
    capsys.readouterr()
    for text, set_a, word in cases:
        poly_file.write_text(text)
        code = run(["coefficient", "--prime", "7", "--poly", str(poly_file),
                    f"--a={set_a}", "--b", "3,4"])
        assert code == 2, (text, set_a)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and word in err, err
        assert err.count("\n") == 1, err


@pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000, '{"a":' * 100_000])
@pytest.mark.parametrize("command", ["reverify", "coefficient"])
def test_deeply_nested_json_exits_2_with_one_line(command, text, tmp_path, capsys):
    # the decoder gives up on nesting past the recursion limit; both
    # commands that read a JSON file turn that into one line
    path = tmp_path / "deep.json"
    path.write_text(text)
    argv = (["reverify", "--in", str(path)] if command == "reverify" else
            ["coefficient", "--prime", "7", "--poly", str(path), "--a", "1,2", "--b", "3,4"])
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: JSON nested too deeply\n"
    assert captured.out == ""


def test_coefficient_matches_summand_sum_on_tight_family(tmp_path, capsys):
    # the two-representation polynomial for A = GF(5)*, target 1: the
    # interpolated coefficient must equal the sum of the two closed-form
    # summands (both are 0 here, since the pair is power-tied)
    p = 5
    field = PrimeField(p)
    A_vals = [1, 2, 3, 4]
    prods = sorted(combine_oracle("mult", p, A_vals, A_vals, restricted=True))
    lines = [(1, (-g) % p, 0) for g in prods if g != 1]
    f = line_product(field, lines).multiply(
        BivariatePolynomial(field, {(1, 1): 1, (0, 0): p - 1})
    )
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps(f.to_triples()))
    a_inv = ",".join(str(pow(v, -1, p)) for v in A_vals)
    code = run(["coefficient", "--prime", "5", "--poly", str(poly_file),
                "--a", "1,2,3,4", "--b", a_inv])
    assert code == 0
    out = capsys.readouterr().out
    assert "coefficient: 0" in out
    from nullcert.certify import symmetric_pair_summand
    A = ElementSet(field, GroupMode.MULTIPLICATIVE, A_vals)
    s1 = symmetric_pair_summand(2, 3, A, 1)
    s2 = symmetric_pair_summand(3, 2, A, 1)
    assert (s1 + s2).value == 0


def test_unknown_subcommand_usage():
    assert run(["frobnicate"]) == 2


# --------------------------------------------------------- console entry point


@pytest.mark.parametrize("argv, code, out, err", [
    (["tight", "--n", "4"], 0, "n = 4\n", ""),
    (["verify", "--theorem", "mult", "--prime", "4", "--exhaustive"], 2, "", "error: 4 is not prime\n"),
])
def test_module_entry_point_exit_code_reaches_the_shell(argv, code, out, err):
    # `python -m nullcert.cli` runs `console_main`, the function the
    # installed `nullcert` script calls, and its exit code is the process's
    paths = [str(Path(nullcert.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-m", "nullcert.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == code, done.stderr
    assert done.stdout.startswith(out) and done.stderr == err
