#!/usr/bin/env python3
"""Full-scale output gate: every benchmark workload reproduces its digest.

Usage: check_digests.py

Runs one short pass (`--seconds 1`) of each perfbench workload at its default
seed and compares the printed `# digest fnv1a64 <hex>` note, a hash of every
simulated output of every scheme cell, with the value committed below. A
speed-only change must keep every digest, so this machine-checks that it is
output-neutral at full scale (the golden-report test covers small scale).
A change that moves simulated outputs on purpose updates the table in the
same commit and says why.
"""

import re
import subprocess
import sys

# workload -> digest at its default seed (see perfbench/README.md).
EXPECTED = {
    "ts0-gc": "706306ac203dc069",
    "lun2-read": "88d288337cda817f",
    "fleet-mirror": "5f1429b553c1d657",
}

PERFBENCH = [
    "cargo", "run", "--release", "--offline", "--quiet",
    "--manifest-path", "perfbench/Cargo.toml", "--",
]


def main() -> int:
    if len(sys.argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for workload, want in EXPECTED.items():
        out = subprocess.run(
            PERFBENCH + ["--workload", workload, "--seconds", "1"],
            check=True, capture_output=True, text=True,
        ).stdout
        m = re.search(r"^# digest fnv1a64 ([0-9a-f]+)", out, re.MULTILINE)
        got = m.group(1) if m else None
        ok = got == want
        failed |= not ok
        print(f"{workload}: digest {got} ({'ok' if ok else f'expected {want}'})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
