#!/usr/bin/env python3
"""Host-time benchmark of the cycle-level simulator.

    python3 perfbench/run.py --workload fig7a_sweep|ips_pigasus|fwd_sparse \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and the simulator libraries it compiles from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
oracle gate, then repeats the workload in fresh processes for S seconds
and checks every repetition's simulated outputs. The last stdout line is
one JSON object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Any failed check makes the exit code 1. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig7a_sweep", "ips_pigasus", "fwd_sparse")
PINNED = os.path.join(HERE, "pinned.json")
# Share of --seconds spent on untraced repetitions in a --trace 1 run; the
# traced repetition follows.
TRACE_UNTRACED_SHARE = 0.7


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def run_program(args):
    """Runs the benchmark binary; returns its stdout JSON lines or None."""
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


class Outcome:
    """Attempted/failed bookkeeping; every failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, problems):
        self.attempted += 1
        for p in problems:
            log(f"FAILED {what}: {p}")
        if problems:
            self.failures.append(what)


def outputs(rep):
    """The simulated outputs of one repetition (what must never change)."""
    return {"counts": rep["counts"], "gbps": rep["gbps"], "fingerprints": rep["fingerprints"]}


def pinned_problems(rep, pinned, seed, scale):
    entry = pinned.get("workloads", {}).get(rep["workload"])
    if entry is None or pinned.get("seed") != seed or pinned.get("scale") != scale:
        return []
    problems = []
    for group in ("counts", "gbps"):
        for key, want in entry[group].items():
            got = rep[group].get(key)
            if got != want:
                problems.append(f"{group}.{key} = {got}, pinned {want}")
    return problems


def rep_problems(rep, reference):
    """Internal-consistency and cross-run checks of one repetition."""
    problems = []
    mode = rep["mode"]
    if not mode["default"] or mode["parallel_effective"] or mode["decoupled_effective"]:
        problems.append(f"ran outside the default serial mode: {mode}")
    for name, value in shares(rep).items():
        if not 0.0 <= value <= 1.0:
            problems.append(f"share {name} = {value} outside [0, 1]")
    if reference is not None and outputs(rep) != outputs(reference):
        diff = [k for k in rep["counts"] if rep["counts"][k] != reference["counts"].get(k)]
        problems.append(f"simulated outputs differ from the first run (counts {diff})")
    if rep["trace"]:
        parts = traced_parts(rep)
        if sum(v for v, _ in parts.values()) > rep["run_s"]:
            problems.append("raw timed parts exceed sim.run_s")
        net = {k: n for k, (_, n) in parts.items()}
        if any(v < 0 for v in net.values()) or sum(net.values()) > net_run_s(rep):
            problems.append(f"netted parts {net} inconsistent with sim.run_s {net_run_s(rep)}")
    return problems


def shares(rep):
    k = rep["kernel"]
    out = {"sim.fast_forward_share": k["fast_forwarded"] / k["sim_cycles"]}
    if rep["trace"]:
        out["sim.awake_share"] = rep["traced"]["awake_mean"] / k["components"]
    return out


SITES = {"net.gen": "net.gen_s", "accel.tick": "accel.tick_s",
         "accel.mmio": "accel.mmio_s", "host.rx": "host.rx_s"}


def traced_parts(rep):
    """Per fine site: (raw seconds, seconds net of the timer's own cost)."""
    t = rep["traced"]
    return {name: (t[f"{site}.raw_s"],
                   t[f"{site}.raw_s"] - t[f"{site}.calls"] * t["timer_inside_ns"] * 1e-9)
            for site, name in SITES.items()}


def net_run_s(rep):
    t = rep["traced"]
    calls = sum(t[f"{site}.calls"] for site in SITES)
    return rep["run_s"] - calls * t["timer_full_ns"] * 1e-9


def rate(rep):
    return rep["traffic_cycles"] / rep["run_s"] / 1e6


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps):
    med = statistics.median
    return {
        "sim_mcycles_per_s": metric(med(rate(r) for r in reps), "Mcycles/s"),
        "setup_s": metric(med(r["setup_s"] for r in reps), "s"),
        "peak_rss_mb": metric(med(r["peak_rss_mb"] for r in reps), "MB"),
    }


def per_layer(reps, variants, traced):
    """Exact counts from the untraced runs, host times from the traced one."""
    med = statistics.median
    first = reps[0]
    c = first["counts"]
    m = {}
    for key in ("core.construct_s", "net.rules_synth_s", "accel.attach_s",
                "verify.load_s", "lint.first_run_s"):
        m[key] = metric(med(r["setup"][key] for r in reps), "s")
    m["sim.fast_forward_share"] = metric(shares(first)["sim.fast_forward_share"], "ratio")
    m["sim.awake_mean"] = metric(traced["traced"]["awake_mean"], "count")
    m["sim.component_count"] = metric(first["kernel"]["components"], "count")
    run_s = net_run_s(traced)
    parts = {k: n for k, (_, n) in traced_parts(traced).items()}
    residual = run_s - sum(parts.values())
    m["sim.run_s"] = metric(run_s, "s")
    m["sim.residual_s"] = metric(residual, "s")
    m["sim.residual_ns_per_cycle"] = metric(residual * 1e9 / traced["traffic_cycles"], "ns")
    m["rv.instret"] = metric(c["rv.instret"], "count")
    m["rv.ipc"] = metric(c["rv.instret"] / c["rv.cycles"], "ratio")
    m["rv.host_ns_per_instret"] = metric(residual * 1e9 / c["rv.instret"], "ns")
    for key in ("rpu.rx_packets", "rpu.tx_stall_cycles", "dist.frames_delivered",
                "dist.mac_drops", "lb.assigned", "lb.assign_stall", "lb.reassembler.held"):
        m[key] = metric(c[key], "count")
    m["rpu.host_ns_per_packet"] = metric(residual * 1e9 / c["rpu.rx_packets"], "ns")
    t = traced["traced"]
    m["net.gen_s"] = metric(parts["net.gen_s"], "s")
    m["net.gen_calls"] = metric(t["net.gen.calls"], "count")
    m["net.gen_ns_per_packet"] = metric(parts["net.gen_s"] * 1e9 / t["net.gen.calls"], "ns")
    ticks = t["accel.tick.calls"]
    m["accel.tick_s"] = metric(parts["accel.tick_s"], "s")
    m["accel.ticks"] = metric(ticks, "count")
    m["accel.mmio_s"] = metric(parts["accel.mmio_s"], "s")
    m["accel.mmio_ops"] = metric(t["accel.mmio.calls"], "count")
    m["accel.jobs_per_ktick"] = metric(
        c["pigasus.jobs"] * 1000.0 / ticks if ticks else 0.0, "count")
    m["host.rx_s"] = metric(parts["host.rx_s"], "s")
    m["host.rx_frames"] = metric(t["host.rx.calls"], "count")
    # Attached over detached host time of the traffic phase, per pair; only
    # ips_pigasus attaches the monitor, so elsewhere there is no overhead.
    ratios = [r["run_s"] / v["run_s"] for r, v in zip(reps, variants)]
    m["obs.health_overhead"] = metric(med(ratios) - 1.0 if ratios else 0.0, "ratio")
    m["trace.overhead"] = metric(traced["run_s"] / med(r["run_s"] for r in reps) - 1.0, "ratio")
    return m


def print_summary(workload, reps, metrics):
    """Every metric with its unit, and the error against the paper."""
    lines = [f"{workload}: {len(reps)} runs"]
    for name, m in metrics.items():
        lines.append(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for a in reps[0]["accuracy"]:
        paper = a["paper_share"] * a["line_gbps"]
        lines.append(f"  accuracy {a['point']:>9s}: simulated {a['gbps']:.4f} Gbps, paper "
                     f"{paper:.4f} Gbps ({100 * a['paper_share']:.0f}% of line), "
                     f"error {round(a['gbps'] - paper, 4) + 0.0:+.4f} Gbps")
    if not reps[0]["accuracy"]:
        lines.append("  accuracy: no paper reference value for this workload")
    print("\n".join(lines), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="traffic-phase length factor in (0, 1] (self-check only)")
    ap.add_argument("--pinned", default=PINNED, help="pinned outputs to compare against")
    args = ap.parse_args(argv)

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    with open(args.pinned) as f:
        pinned = json.load(f)

    outcome = Outcome()
    gate = run_program([binary, "oracle", "--seed", str(args.seed)])
    for pipeline in ("forwarder", "pigasus_hw_reorder"):
        res = next((g for g in gate or [] if g["pipeline"] == pipeline), None)
        outcome.record(f"oracle {pipeline}",
                       [] if res and res["ok"] else ["differential check against the oracle"])

    reps, variants, traced = [], [], None
    base = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
            "--scale", repr(args.scale)]

    def repetition(what, detach_health=False, trace=False):
        cmd = base + ["--trace", str(int(trace))]
        if detach_health:
            cmd += ["--health", "0"]
        if trace:
            cmd += ["--trace-out", os.path.join(build_dir(), f"trace-{args.workload}.json")]
        lines = run_program(cmd)
        rep = lines[-1] if lines else None
        if rep is None:
            outcome.record(what, ["benchmark program failed"])
            return None
        problems = rep_problems(rep, reps[0] if reps else None)
        problems += pinned_problems(rep, pinned, args.seed, args.scale)
        outcome.record(what, problems)
        return rep

    # Repetitions run while the next one still fits in the time, or until a
    # check fails; a failed repetition still yields its figures, but the
    # run reports failure. A traced ips_pigasus run also repeats each
    # repetition with the health monitor detached; the two members of a
    # pair swap order every pair, so drift of the host's speed does not
    # bias their ratio.
    with_variants = bool(args.trace) and args.workload == "ips_pigasus"
    start = time.monotonic()
    budget = args.seconds * (TRACE_UNTRACED_SHARE if args.trace else 1.0)
    while not outcome.failures:
        began = time.monotonic()
        order = (True, False) if len(reps) % 2 == 0 else (False, True)
        for canonical in order if with_variants else (True,):
            if canonical:
                rep = repetition(f"run {len(reps)}")
            else:
                rep = repetition(f"health-variant {len(variants)}", detach_health=True)
            if rep is None:
                break
            (reps if canonical else variants).append(rep)
        now = time.monotonic()
        if now + (now - began) - start > budget:
            break
    if args.trace and not outcome.failures:
        traced = repetition("traced run", trace=True)

    metrics = {}
    if reps and not args.trace:
        metrics = end_to_end(reps)
    elif reps and traced and len(variants) == (len(reps) if with_variants else 0):
        metrics = per_layer(reps, variants, traced)
    if metrics:
        print_summary(args.workload, reps, metrics)
    failed = len(outcome.failures)
    print(json.dumps({"correct": failed == 0, "attempted": outcome.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
