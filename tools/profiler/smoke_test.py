#!/usr/bin/env python3
"""Profiler smoke test: profiles a tiny program and checks the report.

    python3 tools/profiler/smoke_test.py LIBPS2PROF PROF_SMOKE WORKDIR

Runs PROF_SMOKE with LIBPS2PROF preloaded, both named by paths relative to
WORKDIR and started there (the way `.bench_build/ps2perf` is), then the
report script over its profile from another directory. Fails if the report
warns of a module it cannot open, or unless the program's hot function,
BurnCycles, leads the self samples with at least half of them.
"""

import os
import re
import subprocess
import sys
from pathlib import Path


def relative(path, start):
    """`path` relative to `start`, with a slash even in `start` itself."""
    rel = os.path.relpath(path, start)
    return rel if os.sep in rel else os.path.join(".", rel)


def main():
    lib, program, workdir = sys.argv[1:4]
    workdir = Path(workdir).resolve()
    out = workdir / "prof_smoke.prof"
    env = dict(os.environ, LD_PRELOAD=relative(lib, workdir),
               PS2_PROF_OUT=str(out))
    subprocess.run([relative(program, workdir)], cwd=workdir, env=env,
                   check=True, stdout=subprocess.DEVNULL)
    elsewhere = workdir / "prof_smoke_report"
    elsewhere.mkdir(exist_ok=True)
    run = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("ps2prof_report.py")),
         str(out), "--top", "3"],
        cwd=elsewhere, capture_output=True, text=True, check=True)
    report = run.stdout
    print(report)
    if "warning" in run.stderr:
        print(run.stderr)
        print("FAIL: the report could not open a module of the profile")
        return 1
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
