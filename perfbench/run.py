#!/usr/bin/env python3
"""Build and run the repo benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload nbody3d --seed 1 --seconds 55 --trace 0

Configures and builds perfbench/ (the simulator library from src/ plus
the perfbench program) as an optimized CMake build under the build
directory ($CARGO_TARGET_DIR, default .bench_build), then runs the
program with the same arguments. Its last stdout line is the result
JSON. With --trace 1 the span trace is written next to the
build as traces/<workload>-seed<N>.json.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build; the build step is a no-op when fresh."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a full "
             "checkout")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    exe = build(out / "perfbench")

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
