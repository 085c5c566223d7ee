#!/usr/bin/env python3
"""Build and run one workload of the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds bin/nldl.exe (the
daemon the serve workload drives) and perfbench/main.exe with dune,
inside the checkout, then runs main.exe with the same arguments.  The
last line of standard output is the result object; build output and the
human-readable report go to standard error.  Exits non-zero, without a
result, when the build fails or the run does not finish in time.
"""
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
TARGETS = ["./bin/nldl.exe", "./perfbench/main.exe"]


def main():
    build = ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet"] + TARGETS
    try:
        built = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    cmd = [exe] + sys.argv[1:] + ["--nldl", os.path.join("_build", "default", "bin", "nldl.exe")]
    # Its own process group, so a timeout stops the daemon it started too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: run failed with code {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
