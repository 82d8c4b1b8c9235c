#!/usr/bin/env python3
"""Artifact smoke gates for CI.

Replaces the per-step `grep -q` pipelines in the workflow with one
checker driven by the declarative manifest (scripts/gates.json) that
also feeds scripts/bench_regress.py, so the workflow and the gates can
never drift apart.

Each named gate in the manifest's "artifact_gates" section is a list of
checks; a check names a file and may require:

  json_valid       the file parses as JSON
  contains         every listed substring appears in the raw text
  not_contains     none of the listed substrings appears
  metric_at_most   each named metric of a twoclock result line
                   ({"metrics": {name: {"value": ...}}}) is at most its
                   committed value plus the check's "margin_pct"

Usage: ci_gates.py GATE [GATE...] [--manifest PATH]

Runs every named gate and exits 1 if any check fails, printing one
verdict line per assertion. Unknown gate names are an error (exit 2):
a typo in the workflow must not silently skip enforcement.
"""

import json
import os
import sys

DEFAULT_MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gates.json")


def run_check(check):
    """Run one file check. Returns the number of failed assertions."""
    path = check["file"]
    failures = 0
    if not os.path.exists(path):
        print(f"FAIL {path}: missing")
        # Every assertion on a missing file is moot; count it as one.
        return 1
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    if check.get("json_valid"):
        try:
            json.loads(text)
            print(f"ok   {path}: valid JSON")
        except ValueError as e:
            print(f"FAIL {path}: invalid JSON ({e})")
            failures += 1
    for needle in check.get("contains", []):
        if needle in text:
            print(f"ok   {path}: contains {needle!r}")
        else:
            print(f"FAIL {path}: missing {needle!r}")
            failures += 1
    for needle in check.get("not_contains", []):
        if needle in text:
            print(f"FAIL {path}: contains forbidden {needle!r}")
            failures += 1
        else:
            print(f"ok   {path}: free of {needle!r}")
    limits = check.get("metric_at_most", {})
    if limits:
        margin = check.get("margin_pct", 0)
        try:
            metrics = json.loads(text)["metrics"]
        except (ValueError, KeyError, TypeError):
            print(f"FAIL {path}: no metrics object")
            return failures + len(limits)
        for name, committed in limits.items():
            limit = committed * (1 + margin / 100)
            value = metrics.get(name, {}).get("value")
            if value is None:
                print(f"FAIL {path}: missing metric {name!r}")
                failures += 1
            elif value <= limit:
                print(f"ok   {path}: {name} {value} <= {limit:.6g} ({committed} + {margin}%)")
            else:
                print(f"FAIL {path}: {name} {value} > {limit:.6g} ({committed} + {margin}%)")
                failures += 1
    return failures


def main(argv):
    manifest_path = DEFAULT_MANIFEST
    gates = []
    it = iter(argv[1:])
    for a in it:
        if a == "--manifest":
            manifest_path = next(it, None)
            if manifest_path is None:
                print("--manifest requires a path")
                return 2
        elif a.startswith("--manifest="):
            manifest_path = a.split("=", 1)[1]
        else:
            gates.append(a)
    if not gates:
        print(__doc__)
        return 2
    with open(manifest_path) as f:
        manifest = json.load(f)
    artifact_gates = manifest.get("artifact_gates", {})
    failures = 0
    for gate in gates:
        if gate not in artifact_gates:
            print(f"unknown gate {gate!r}; known: {' '.join(sorted(artifact_gates))}")
            return 2
        print(f"== gate: {gate}")
        for check in artifact_gates[gate]:
            failures += run_check(check)
    if failures:
        print(f"{failures} assertion(s) failed")
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
