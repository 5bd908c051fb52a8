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

The same passes also hold the device-memory ceiling: a workload listed in
RSS_CEILING_MIB fails if the `peak_rss_mib` of its JSON result line exceeds
the committed value. lun2-read runs the full-size device (65,536 blocks) but
programs a few percent of it, so its peak RSS stays low only while flash page
state is allocated for the blocks a run writes, not for every block.
"""

import json
import re
import subprocess
import sys

# workload -> digest at its default seed (see perfbench/README.md).
EXPECTED = {
    "ts0-gc": "706306ac203dc069",
    "lun2-read": "88d288337cda817f",
    "fleet-mirror": "5f1429b553c1d657",
}

# workload -> peak RSS ceiling in MiB (lazy page state measures ~115;
# eagerly allocated page state measured ~330).
RSS_CEILING_MIB = {
    "lun2-read": 160.0,
}

PERFBENCH = [
    "cargo", "run", "--release", "--offline", "--quiet",
    "--manifest-path", "perfbench/Cargo.toml", "--",
]


def peak_rss_mib(out: str):
    """`metrics.peak_rss_mib.value` of the pass's JSON result line, or None."""
    for line in reversed(out.splitlines()):
        if line.startswith("{"):
            metric = json.loads(line).get("metrics", {}).get("peak_rss_mib")
            return metric["value"] if metric else None
    return None


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
        ceiling = RSS_CEILING_MIB.get(workload)
        if ceiling is not None:
            rss = peak_rss_mib(out)
            ok = rss is not None and rss <= ceiling
            failed |= not ok
            print(f"{workload}: peak_rss_mib {rss} "
                  f"({'ok' if ok else f'ceiling {ceiling}'})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
