#!/usr/bin/env python3
"""A/A steadiness record for perfbench.

Runs the same build as two sets. Each set runs every workload once per
seed 1..10 (plain) for the run_seconds of BENCHMARK.json, then once
traced with seed 1. It prints a Markdown record: for every end-to-end
metric of every workload, each set's median and quartiles, the spread
(interquartile range over median, the same figure the bounds in
BENCHMARK.json are checked against) and the drift of the median from
the first set to the second; then whether every exact metric repeated
bit for bit between the sets; then, for the workloads whose host-time
figures are scaled to the reference host, the spread of the host's
speed and of sim_kips before scaling beside it.

Run from the repository root:

    python3 perfbench/steadiness.py
"""

import json
import re
import statistics
import subprocess
import sys
import time

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]
WORKLOADS = ["storm", "bulk", "serve"]
SETS = 2
SEEDS = list(range(1, 11))

# Metrics that repeat bit for bit for a fixed seed.
EXACT_END_TO_END = ["sim_ipc", "mem_nj_per_access", "nj_saving_gap_pp", "ipc_gain_gap_pp"]
EXACT_PER_LAYER = [
    "sim.fast_forward_calls", "sim.full_step_frac", "sim.storm_rounds",
    "cpu.load_stall_frac", "noc.bytes", "dram.row_hit_ratio",
    "dram.demand_read_latency_avg", "llc.mshr_stalls", "llc.spec_dropped",
    "llc.demand_hit_ratio", "llc.spec_read_coverage", "llc.spec_read_overfetch",
    "llc.eager_write_frac", "llc.redirty_frac", "router.cache_hit_ratio",
    "daemon.journal_hit_ratio",
]
# The note a plain storm or bulk run prints about the host's speed.
HOST_NOTE = re.compile(r"host speed ([0-9.]+) x the reference host .*unscaled ([0-9.]+) kinstr/s")


def run_once(workload, seed, seconds, trace):
    cmd = COMMAND + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)} was not correct:\n{out.stderr}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    host = HOST_NOTE.search(out.stdout)
    if host:
        metrics["host_speed"] = float(host.group(1))
        metrics["unscaled_sim_kips"] = float(host.group(2))
    return metrics


def quartiles(vals):
    """Median, q1, q3 and spread (q3 - q1) / median of vals."""
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    doc = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    seconds = doc["run_seconds"]

    plain = {}   # (set, workload) -> [metrics per seed]
    traced = {}  # (set, workload) -> metrics
    for s in range(SETS):
        for w in WORKLOADS:
            t0 = time.time()
            plain[s, w] = [run_once(w, seed, seconds, 0) for seed in SEEDS]
            traced[s, w] = run_once(w, SEEDS[0], seconds, 1)
            print(f"set {s + 1} {w}: {len(SEEDS)} plain + 1 traced runs "
                  f"in {time.time() - t0:.0f} s", file=sys.stderr)

    print(f"{SETS} sets x {len(SEEDS)} seeds ({SEEDS[0]}..{SEEDS[-1]}), --seconds {seconds}.\n")
    print("| workload | metric | bound | set | median | q1 | q3 | spread | drift |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in WORKLOADS:
        for name, bound in bounds.items():
            medians = []
            for s in range(SETS):
                med, q1, q3, spread = quartiles([m[name] for m in plain[s, w]])
                medians.append(med)
                drift = ""
                if s == SETS - 1:
                    drift = f"{abs(medians[-1] - medians[0]) / medians[0]:.4f}"
                print(f"| {w} | {name} | {bound} | {s + 1} | {med:.6g} | {q1:.6g} | "
                      f"{q3:.6g} | {spread:.4f} | {drift} |")

    print("\nExact metrics, set 1 against set 2, same seeds:\n")
    for w in WORKLOADS:
        diffs = []
        for s in range(1, SETS):
            for i, seed in enumerate(SEEDS):
                for name in EXACT_END_TO_END:
                    if plain[0, w][i][name] != plain[s, w][i][name]:
                        diffs.append(f"{name} (seed {seed}, set {s + 1})")
            for name in EXACT_PER_LAYER:
                if traced[0, w][name] != traced[s, w][name]:
                    diffs.append(f"{name} (traced, set {s + 1})")
        verdict = "all identical" if not diffs else "DIFFER: " + ", ".join(diffs)
        print(f"- {w}: {len(EXACT_END_TO_END)} end-to-end x {len(SEEDS)} seeds and "
              f"{len(EXACT_PER_LAYER)} per-layer: {verdict}")

    print("\nHost speed (x the reference host) and sim_kips before and after "
          "scaling to the reference host:\n")
    print("| workload | set | figure | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for w in WORKLOADS:
        for s in range(SETS):
            if "host_speed" not in plain[s, w][0]:
                continue
            for name in ["host_speed", "unscaled_sim_kips", "sim_kips"]:
                med, q1, q3, spread = quartiles([m[name] for m in plain[s, w]])
                print(f"| {w} | {s + 1} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                      f"{spread:.4f} |")

    print(f"\nTraced runs (seed {SEEDS[0]}), set 1:\n")
    print("| metric | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---|" * len(WORKLOADS))
    for name in [m["name"] for m in doc["per_layer"]]:
        print(f"| {name} | " + " | ".join(f"{traced[0, w][name]:.6g}" for w in WORKLOADS) + " |")


if __name__ == "__main__":
    main()
