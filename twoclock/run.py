#!/usr/bin/env python3
"""Build and run the two-clock benchmark for one workload.

Run from the root of a source checkout:

    python3 twoclock/run.py --workload bulk-capture --seed 1 --seconds 10 --trace 0

The script builds twoclock/main.exe with dune, runs it, and passes its
output through; the last line is one JSON object with the keys
correct, attempted, failed and metrics. It exits non-zero, without a
result line, when the build fails (for example outside a checkout of
the repository), and non-zero when any output check fails.

Traced and untraced runs of the same workload, seed and length must
produce the same simulated metrics. Each run leaves a fingerprint of
them under .twoclock/ in the checkout; a later run in the other mode
compares against it and counts a mismatch as a failure.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("bulk-capture", "steady-epochs", "restore-fanout")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "twoclock", "main.exe")
STATE_DIR = ".twoclock"


def run(cmd, timeout):
    """Run cmd in its own process group; kill the whole group on timeout
    and always wait for it, so nothing outlives this script."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def fingerprint_check(args, fingerprint):
    """Compare against the other mode's fingerprint; store this one."""
    os.makedirs(STATE_DIR, exist_ok=True)
    stem = f"{args.workload}-{args.seed}-{args.seconds}"
    mine = os.path.join(STATE_DIR, f"{stem}-trace{args.trace}.fp")
    other = os.path.join(STATE_DIR, f"{stem}-trace{1 - args.trace}.fp")
    with open(mine, "w") as f:
        f.write(fingerprint)
    if os.path.exists(other):
        with open(other) as f:
            return f.read().strip() == fingerprint
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        # No shared dune cache: the build reads and writes only the checkout.
        rc, out, err = run(["dune", "build", "--root", ".", "--display", "quiet",
                            "--cache", "disabled", "twoclock/main.exe"],
                           BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"twoclock: build failed: {e}", file=sys.stderr)
        return 1
    if rc != 0 or not os.path.exists(EXE):
        sys.stderr.write(out + err)
        print("twoclock: build failed", file=sys.stderr)
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        rc, out, err = run(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"twoclock: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(err)
    lines = out.splitlines()
    if not lines:
        print(f"twoclock: no output (exit {rc})", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        print(f"twoclock: last line is not a result (exit {rc})", file=sys.stderr)
        return 1

    fps = [ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("sim-fingerprint:")]
    if not fps or not fingerprint_check(args, fps[0]):
        print("FAIL: simulated metrics differ between traced and untraced runs",
              file=sys.stderr)
        result["attempted"] += 1
        result["failed"] += 1
        result["correct"] = False
    else:
        result["attempted"] += 1

    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0 if result["correct"] and rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
