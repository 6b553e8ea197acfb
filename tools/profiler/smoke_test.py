#!/usr/bin/env python3
"""Profiler smoke test: profiles a tiny program and checks the report.

    python3 tools/profiler/smoke_test.py LIBPS2PROF PROF_SMOKE WORKDIR

Runs PROF_SMOKE with LIBPS2PROF preloaded, then the report script over its
profile, and fails unless the program's hot function, BurnCycles, leads the
self samples with at least half of them.
"""

import os
import re
import subprocess
import sys
from pathlib import Path


def main():
    lib, program, workdir = sys.argv[1:4]
    out = Path(workdir) / "prof_smoke.prof"
    env = dict(os.environ, LD_PRELOAD=lib, PS2_PROF_OUT=str(out))
    subprocess.run([program], env=env, check=True, stdout=subprocess.DEVNULL)
    report = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("ps2prof_report.py")),
         str(out), "--top", "3"],
        capture_output=True, text=True, check=True).stdout
    print(report)
    self_section = report.split("by self samples:")[1].split("\n\n")[0]
    first = self_section.strip().splitlines()[0]
    match = re.match(r"\s*([\d.]+)%\s+\d+\s+(.*)", first)
    if not match or "BurnCycles" not in match.group(2):
        print("FAIL: BurnCycles does not lead the self samples")
        return 1
    if float(match.group(1)) < 50.0:
        print(f"FAIL: BurnCycles holds only {match.group(1)}% of samples")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
