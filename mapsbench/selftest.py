#!/usr/bin/env python3
"""Self-test of the benchmark's output checks (see README.md).

    python3 mapsbench/selftest.py

Run from the root of a checkout. Shows that
  1. a perturbed cell configuration trips the digest check: the run
     fails, names the cell, and exits non-zero;
  2. the seed argument changes the generated inputs: every cell's digest
     at another seed differs from the stored seed-1 reference;
  3. a traced run reproduces the untraced run's outputs (the composed
     pipeline's digests equal the facade's), so it passes at seed 1.
Exits 0 when all three hold.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def harness(workload, seed, trace=0, extra=()):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.1,
                              trace=trace)
    status, out = run.harness(args, extra)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return status, lines, result


def main():
    if not run.build():
        return 1
    failures = []

    status, lines, result = harness("sim_read", 1, extra=["--perturb"])
    mismatches = [l for l in lines if l.startswith("FAILED:") and
                  "!= reference" in l]
    if status == 0 or not result or result["correct"] or not mismatches:
        failures.append("perturbed cell did not trip the digest check")
    else:
        print("ok: perturbed config fails: " + mismatches[0])

    with open(os.path.join(run.HERE, "reference_digests.json")) as f:
        reference = json.load(f)["workloads"]["sim_read"]
    status, lines, result = harness("sim_read", 2)
    # "digest <hex> <cell>" lines, printed at every non-reference seed.
    digests = {}
    for line in lines:
        if line.startswith("digest "):
            _, digest, cell = line.split(" ", 2)
            digests[cell] = digest
    same = [cell for cell, d in digests.items() if reference.get(cell) == d]
    if status != 0 or len(digests) != len(reference) or same:
        failures.append("seed 2 did not change every cell's inputs "
                        "(unchanged: %s)" % same)
    else:
        print("ok: seed 2 changes all %d cell digests" % len(digests))

    status, lines, result = harness("sim_write", 1, trace=1)
    if status != 0 or not result or not result["correct"]:
        failures.append("traced sim_write diverged from the untraced run")
    else:
        print("ok: traced pipeline reproduces the untraced digests")

    for f in failures:
        print("FAILED: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
