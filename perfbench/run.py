#!/usr/bin/env python3
"""Runs one workload of the ruche host-cost benchmark and prints its metrics.

    python3 perfbench/run.py --workload synth-sweep|manycore|repro-warm \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. It builds `perfbench/` (a package of its
own, see README.md) with cargo, then starts one fresh process per pass of
the workload until `--seconds` of passes have run (at least one), and
prints every end-to-end metric (`--trace 0`) or every per-layer metric
(`--trace 1`) as the last line of stdout:

    {"correct": true, "attempted": 60, "failed": 0, "metrics": {...}}

With `--trace 1` it runs one untraced and one traced pass; the traced pass
records spans around every call into a layer (written to
`perfbench/out/`), and the difference of the two passes' wall times is the
tracing overhead. Outputs are digested and compared with `goldens.json`;
a mismatch, a failed job or a failed output check exits non-zero.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("synth-sweep", "manycore", "repro-warm")
# `Testbench::DEFAULT_SEED` (0xC0FFEE).
DEFAULT_SEED = 0xC0FFEE
PASS_TIMEOUT_S = 170
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_p50_s", "s"),
    ("job_p80_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("failed_frac", "frac"),
)
PER_LAYER = (
    "verify.configs", "verify.busy_s", "verify.config_ms_max",
    "service.jobs", "service.simulated", "service.store_hits", "service.rejected",
    "sweep.busy_s", "sweep.idle_s",
    "store.open_ms", "store.get_miss_us", "store.get_hit_us", "store.put_us", "store.flush_ms",
    "traffic.job_ms_unsat", "traffic.job_ms_sat", "traffic.packets",
    "noc.new_ms", "noc.step_ns_wormhole", "noc.step_ns_vc",
    "noc.step_ns_wormhole_low", "noc.step_ns_wormhole_high",
    "noc.step_ns_vc_low", "noc.step_ns_vc_high",
    "noc.cycles", "noc.flit_hops", "noc.ns_per_flit_hop",
    "manycore.build_ms", "manycore.run_s_streaming", "manycore.run_s_latency_bound",
    "manycore.sim_cycles", "manycore.instructions", "manycore.ns_per_tile_cycle",
    "manycore.stall_share", "manycore.quiet_cycle_share",
    "preflight.verify_s", "figures.synthetic_s", "figures.manycore_s",
    "figures.phys_s", "figures.ablations_s",
)
# Engine knobs read from the environment. A stray value would change what
# is measured, so every pass runs without any `RUCHE_*` variable.
CLEARED = ("RUCHE_STEP_MODE", "RUCHE_STEP_THREADS", "RUCHE_THREADS",
           "RUCHE_NO_CACHE", "RUCHE_QUICK")


def log(msg):
    print(f"[perfbench] {msg}", flush=True)


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def clean_env():
    env = dict(os.environ)
    dropped = sorted(k for k in env if k.startswith("RUCHE_"))
    for k in dropped:
        del env[k]
    return env, dropped


def build(env):
    """Builds the pass binary; returns its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--message-format=json",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, check=False)
    if proc.returncode != 0:
        fail(f"cargo build failed with exit code {proc.returncode}")
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exe = msg["executable"]
    if not exe:
        fail("cargo produced no executable")
    return exe


def command_output(cmd):
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True, timeout=30).stdout.strip()
        return out or None
    except (OSError, subprocess.SubprocessError):
        return None


def run_pass(exe, env, workload, seed, traced, index, work, out_dir, budget):
    rec_path = os.path.join(out_dir, f"{workload}-pass{index}.json")
    log_path = os.path.join(out_dir, f"{workload}-pass{index}.log")
    pass_work = os.path.join(work, f"pass{index}")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--budget-s", f"{max(budget, 0.0):.3f}",
           "--work-dir", pass_work, "--out", rec_path]
    with open(log_path, "w") as logf:
        try:
            code = subprocess.run(cmd, env=env, stdout=logf, stderr=subprocess.STDOUT,
                                  timeout=PASS_TIMEOUT_S, check=False).returncode
        except subprocess.TimeoutExpired:
            fail(f"pass {index} of {workload} timed out; log: {log_path}")
    shutil.rmtree(pass_work, ignore_errors=True)
    if code != 0:
        fail(f"pass {index} of {workload} exited with code {code}; log: {log_path}")
    with open(rec_path) as f:
        return json.load(f)


def percentile(values, p):
    """The p-th percentile (1 <= p <= 99), interpolating order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("Cargo.toml", "crates", "results"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"run from the repository root: {need} is missing")
    env, dropped = clean_env()
    exe = build(env)
    goldens_path = os.path.join(HERE, "goldens.json")
    with open(goldens_path) as f:
        goldens = json.load(f)

    nproc = len(os.sched_getaffinity(0))
    work = os.path.join(HERE, "work")
    out_dir = os.path.join(HERE, "out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    passes = []
    started = time.monotonic()
    if args.trace:
        for traced in (False, True):
            passes.append(run_pass(exe, env, args.workload, args.seed, traced, len(passes),
                                   work, out_dir, args.seconds))
    else:
        while True:
            t = time.monotonic()
            passes.append(run_pass(exe, env, args.workload, args.seed, False, len(passes),
                                   work, out_dir, args.seconds - (t - started)))
            last = time.monotonic() - t
            if time.monotonic() - started + last > args.seconds:
                break
    shutil.rmtree(work, ignore_errors=True)

    first = passes[0]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "available_parallelism": first["available_parallelism"],
        "workers": first["workers"],
        "step_mode": first["step_mode"],
        "step_threads": first["step_threads"],
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "rustc": command_output(["rustc", "--version"]),
        "cleared_env": dropped,
    }
    log("provenance " + json.dumps(provenance, sort_keys=True))
    log("engine knobs cleared for every pass: " + ", ".join(CLEARED)
        + " (and any other RUCHE_* variable)"
        + (f"; were set: {', '.join(dropped)}" if dropped else "; none were set"))

    # Output gates.
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = sorted({p["digest"] for p in passes})
    gold = goldens.get(args.workload, {})
    expected = gold.get("any_seed") or gold.get(str(args.seed))
    for note in dict.fromkeys(n for p in passes for n in p["notes"]):
        log(note)
    if len(digests) > 1:
        log(f"digest differs between passes of one run: {digests}")
        failed = attempted
    elif expected is None:
        log(f"digest {digests[0]} unchecked: no golden for seed {args.seed} "
            f"(goldens cover seeds {', '.join(gold)})")
    elif digests[0] != expected:
        log(f"digest MISMATCH: {digests[0]} != golden {expected}")
        failed = attempted
    else:
        log(f"digest {digests[0]} matches the golden")
    correct = failed == 0

    if args.trace:
        untraced, traced = passes
        layers = traced["layers"]
        missing = [m for m in PER_LAYER if m not in layers]
        if missing:
            fail(f"traced pass did not report: {', '.join(missing)}")
        metrics = {m: {"value": layers[m]["value"], "unit": layers[m]["unit"]} for m in PER_LAYER}
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - untraced["wall_s"], "unit": "s"}
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w") as f:
            json.dump({"provenance": provenance, "wall_s": traced["wall_s"],
                       "untraced_wall_s": untraced["wall_s"], "self_s": traced["self_s"],
                       "layers": layers, "bypassed": traced["bypassed"],
                       "spans": traced["spans"]}, f)
        log(f"{len(traced['spans'])} spans written to {os.path.relpath(trace_path, root)}")
        log("layers this workload bypasses (reported as 0): "
            + (", ".join(traced["bypassed"]) or "none"))
        for phase, what in (("timed", f"the timed phase ({traced['wall_s']:.3f} s wall)"),
                            ("attribution", "the attribution calls after it")):
            self_s = traced["self_s"][phase]
            total = sum(self_s.values()) or 1.0
            log(f"self time per layer over {what}, {traced['workers']} worker(s):")
            for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
                log(f"  {layer:<10} {s:10.4f} s  {100 * s / total:5.1f}%")
    else:
        setups = [s for p in passes for s in p["setup_s"]]
        jobs = [s for p in passes for s in p["job_s"]]
        per_pass_failed = failed / len(passes)
        per_pass_attempted = attempted / len(passes)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "job_p50_s": percentile(jobs, 50),
            "job_p80_s": percentile(jobs, 80),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            # Laplace's rule of succession: never 0, 1/(jobs+2) per pass
            # when nothing fails.
            "failed_frac": (per_pass_failed + 1) / (per_pass_attempted + 2),
        }
        log(f"{len(jobs)} job samples over {len(passes)} pass(es); "
            f"{len(setups)} set-up repetitions")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, f"{args.workload}-run.json"), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
