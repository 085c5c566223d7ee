#!/usr/bin/env python3
"""Self-test of the benchmark's oracles.

    python3 perfbench/selftest.py

For every workload, runs perfbench/run.py twice with a short measuring
time: once as is, which must report correct with no failed operation,
and once with --corrupt, which flips one byte of one answer (a response
line, a simulation outcome count, a sorted key) before the oracle sees
it and must report the run incorrect with failed > 0, so error_frac
rises.  Exits non-zero if any check does not hold.
"""
import json
import subprocess
import sys

WORKLOADS = ["serve_hot", "mrsim_faults", "paper_sweep"]
SECONDS = 3


def run(workload, corrupt):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", str(SECONDS), "--trace", "0"] + (["--corrupt"] if corrupt else [])
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ok = True
    for w in WORKLOADS:
        clean = run(w, False)
        bad = run(w, True)
        clean_ok = clean is not None and clean["correct"] and clean["failed"] == 0
        bad_ok = bad is not None and not bad["correct"] and bad["failed"] > 0
        frac = (bad["failed"] / bad["attempted"]) if bad else float("nan")
        print(f"{w}: clean run {'ok' if clean_ok else 'FAILED'}; "
              f"corrupted answer {'caught' if bad_ok else 'NOT caught'} (error_frac {frac:.6f})")
        ok = ok and clean_ok and bad_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
