#!/usr/bin/env python3
"""Self-check of the benchmark's own gates, on short runs.

    python3 perfbench/selfcheck.py                 # exit 0 when every check holds
    python3 perfbench/selfcheck.py --write-pinned  # re-record perfbench/pinned.json

For every workload, at 5% of its full traffic length:
  1. the traced run's simulated outputs and fingerprints equal the
     untraced run's;
  2. run.py passes against pins recorded from that untraced run;
  3. run.py reports a failed run and exits 1 when one pinned value is
     perturbed.
--write-pinned records the full-length outputs at the pinned seed instead.
"""

import argparse
import json
import os
import subprocess
import sys

import run

SHORT = 0.05
PINNED_SEED = 1


def outputs(binary, workload, scale, trace):
    cmd = [binary, "run", "--workload", workload, "--seed", str(PINNED_SEED),
           "--scale", repr(scale), "--trace", str(int(trace))]
    lines = run.run_program(cmd)
    if not lines:
        sys.exit(f"benchmark program failed: {' '.join(cmd)}")
    return lines[-1]


def pins(reps, scale):
    return {"seed": PINNED_SEED, "scale": scale,
            "workloads": {r["workload"]: {"counts": r["counts"], "gbps": r["gbps"]}
                          for r in reps}}


def run_py(workload, pinned_path):
    """Runs run.py at the short length; returns (exit code, result JSON)."""
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(PINNED_SEED), "--seconds", "1", "--trace", "0",
           "--scale", repr(SHORT), "--pinned", pinned_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write-pinned", action="store_true")
    args = ap.parse_args()
    binary = run.build()
    if binary is None:
        sys.exit("build failed")

    if args.write_pinned:
        reps = [outputs(binary, w, 1.0, False) for w in run.WORKLOADS]
        with open(run.PINNED, "w") as f:
            json.dump(pins(reps, 1.0), f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {run.PINNED}")
        return 0

    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    pinned_path = os.path.join(run.build_dir(), "selfcheck-pinned.json")
    for w in run.WORKLOADS:
        plain = outputs(binary, w, SHORT, False)
        traced = outputs(binary, w, SHORT, True)
        check(run.outputs(plain) == run.outputs(traced),
              f"{w}: traced run leaves every simulated output unchanged")

        good = pins([plain], SHORT)
        with open(pinned_path, "w") as f:
            json.dump(good, f)
        code, res = run_py(w, pinned_path)
        check(code == 0 and res["correct"] and res["failed"] == 0,
              f"{w}: run.py passes against its own pins")

        counts = good["workloads"][w]["counts"]
        counts["rv.instret"] += 1
        with open(pinned_path, "w") as f:
            json.dump(good, f)
        code, res = run_py(w, pinned_path)
        check(code != 0 and not res["correct"] and res["failed"] >= 1,
              f"{w}: one perturbed pinned value is reported as a failed run")
    os.remove(pinned_path)
    print(f"{len(failures)} self-check failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
