#!/usr/bin/env python3
"""Record the SHA-256 of every report the sweep workloads write.

    python3 perfbench/record_golden.py

Runs each exhaustive sweep of `pair-sweep` and `set-sweep` once, and each
sampled hunt once per seed in `workloads.GOLDEN_SEEDS`, through
`nullcert.cli.main` with `--out`, and writes the digests to
perfbench/golden.json.  Run it only at a commit whose reports are known to
be right: the benchmark counts every later digest mismatch as a failed
operation, which is what keeps reports byte-identical across changes.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from nullcert import cli  # noqa: E402


def main() -> int:
    argvs = [workloads.sweep_argv(t, p, extra)
             for t, p, extra in workloads.PAIR_SWEEPS + workloads.SET_SWEEPS]
    argvs += [workloads.sweep_argv(t, p, extra, seed)
              for seed in workloads.GOLDEN_SEEDS for t, p, extra in workloads.HUNTS]
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", str(out)])
            if code != 0:
                print(f"error: {' '.join(argv)} exited {code}", file=sys.stderr)
                return 1
            digests[workloads.golden_key(argv)] = hashlib.sha256(out.read_bytes()).hexdigest()
    path = BENCH / "golden.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
