#!/usr/bin/env python3
"""A/B record of perfbench: a parent revision against the working tree.

Checks <parent-rev> out in a git worktree under .bench_build/ab/, builds
perfbench once per side into its own target directory and runs every
workload of BENCHMARK.json as ten alternating pairs (pair i runs both
sides with seed i, the parent first on odd pairs) for its run_seconds,
then one traced seed-1 run per side. It prints a Markdown record: per
end-to-end metric and workload, each side's median and quartiles, the
change's pair wins and a verdict; whether every exact metric repeated
per seed; the failed runs; and the per-layer deltas. docs/PERFORMANCE.md
("The A/B record") explains each part.

It exits with status 2, comparing nothing, unless perfbench/ and
BENCHMARK.json are the same at <parent-rev> and in the working tree.
It takes no other argument:

    python3 scripts/perf_ab.py <parent-rev> > ab.md
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
from steadiness import EXACT_END_TO_END, EXACT_PER_LAYER, quartiles, run_once  # noqa: E402

PAIRS = 10
WORK = ROOT / ".bench_build" / "ab"
# What must be identical on both sides for the comparison to mean anything.
FIXED = ["perfbench", "BENCHMARK.json"]
SIDES = {
    "parent": (WORK / "parent", WORK / "parent-target"),
    "change": (ROOT, WORK / "change-target"),
}


def refuse(msg):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=False)


def guard(rev):
    """The commit rev names, if perfbench and BENCHMARK.json match there."""
    sha = git("rev-parse", "--verify", "--quiet", rev + "^{commit}").stdout.strip()
    if not sha:
        refuse(f"{rev!r} names no commit")
    changed = git("diff", "--name-only", sha, "--", *FIXED).stdout.split()
    changed += git("ls-files", "--others", "--exclude-standard", "--", *FIXED).stdout.split()
    if changed:
        refuse(f"the benchmark differs between {rev} and the working tree: "
               + ", ".join(sorted(set(changed))))
    return sha


def remove_worktree():
    git("worktree", "remove", "--force", str(SIDES["parent"][0]))
    shutil.rmtree(SIDES["parent"][0], ignore_errors=True)
    git("worktree", "prune")


def build(side):
    src, target = SIDES[side]
    out = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        cwd=src, env={**os.environ, "CARGO_TARGET_DIR": str(target)},
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"perf_ab: building the {side} failed:\n{out.stderr}")


def run(side, workload, seed, seconds, trace):
    # run_once runs perfbench's command in the current directory.
    src, target = SIDES[side]
    os.chdir(src)
    os.environ["CARGO_TARGET_DIR"] = str(target)
    return run_once(workload, seed, seconds, trace)


def verdict(par, chg, better, bound, exact):
    """Pair wins, ties and the verdict of the change against the parent,
    by the rules in docs/PERFORMANCE.md ("The A/B record")."""
    sign = 1 if better == "higher" else -1
    gains = [sign * (c - p) for p, c in zip(par, chg)]
    wins = sum(g > 0 for g in gains)
    ties = sum(g == 0 for g in gains)
    pmed, pq1, pq3, pspread = quartiles(par)
    cmed, _, _, cspread = quartiles(chg)
    better_by = sign * (cmed - pmed)
    if exact and ties == len(gains):  # spread over seeds, not noise
        return wins, ties, "no regression (identical)"
    if wins >= 0.9 * len(gains) and better_by > pq3 - pq1:
        return wins, ties, "gain"
    all_better = min(sign * c for c in chg) > max(sign * p for p in par)
    if max(pspread, cspread) > bound and not all_better:
        return wins, ties, "unresolved"
    worse = -better_by / abs(pmed) if pmed else (0.0 if better_by >= 0 else float("inf"))
    return wins, ties, "regression" if worse > bound else "no regression"


def summary(vals):
    med, q1, q3, spread = quartiles(vals)
    return med, f"{med:.6g} [{q1:.6g}, {q3:.6g}]", spread


def pct(p, c):
    return f"{(c - p) / abs(p) * 100:+.2f}%" if p else ("0" if c == p else "n/a")


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        refuse("usage: python3 scripts/perf_ab.py <parent-rev>")
    rev = sys.argv[1]
    sha = guard(rev)
    head = git("rev-parse", "HEAD").stdout.strip()
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = doc["run_seconds"]
    workloads = [w["name"] for w in doc["workloads"]]
    end_to_end = doc["end_to_end"]

    remove_worktree()
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        if git("worktree", "add", "--detach", str(SIDES["parent"][0]), sha).returncode != 0:
            sys.exit(f"perf_ab: cannot check out {rev} under {WORK}")
        for side in SIDES:
            build(side)
        plain = {(s, w): [] for s in SIDES for w in workloads}  # metrics per pair
        traced = {}  # (side, workload) -> metrics
        for w in workloads:
            t0 = time.time()
            for seed in range(1, PAIRS + 1):
                order = ["parent", "change"] if seed % 2 else ["change", "parent"]
                for side in order:
                    plain[side, w].append(run(side, w, seed, seconds, 0))
            for side in SIDES:
                traced[side, w] = run(side, w, 1, seconds, 1)
            print(f"{w}: {PAIRS} pairs + 2 traced runs in {time.time() - t0:.0f} s",
                  file=sys.stderr)
    finally:
        os.chdir(ROOT)
        remove_worktree()

    print(f"# perfbench A/B: {sha[:12]} ({rev}) against the working tree at {head[:12]}\n")
    print(f"{PAIRS} pairs per workload: pair i runs both sides with seed i, the parent "
          f"first on odd pairs; --seconds {seconds}; one traced seed-1 run per side. "
          f"{os.cpu_count()} CPUs. Made with `python3 scripts/perf_ab.py {rev}`.\n")

    print("## End-to-end metrics\n")
    print("| workload | metric | better | bound | parent median [q1, q3] | "
          "change median [q1, q3] | median change | spread parent / change | "
          "change wins | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    counts = {}
    for w in workloads:
        for m in end_to_end:
            name = m["name"]
            par = [r[name] for r in plain["parent", w]]
            chg = [r[name] for r in plain["change", w]]
            wins, ties, v = verdict(par, chg, m["better"], m["bound"], name in EXACT_END_TO_END)
            counts[v] = counts.get(v, 0) + 1
            (pmed, ptxt, pspread), (cmed, ctxt, cspread) = summary(par), summary(chg)
            tie_txt = f" ({ties} tied)" if ties else ""
            print(f"| {w} | {name} | {m['better']} | {m['bound']} | {ptxt} | {ctxt} | "
                  f"{pct(pmed, cmed)} | {pspread:.4f} / {cspread:.4f} | "
                  f"{wins}/{PAIRS}{tie_txt} | {v} |")
    print("\nVerdicts: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())) + ".\n")

    print("## Exact metrics, parent against change, same seeds\n")
    for w in workloads:
        diffs = []
        for i in range(PAIRS):
            for name in EXACT_END_TO_END:
                if plain["parent", w][i][name] != plain["change", w][i][name]:
                    diffs.append(f"{name} (seed {i + 1})")
        for name in EXACT_PER_LAYER:
            if traced["parent", w][name] != traced["change", w][name]:
                diffs.append(f"{name} (traced)")
        verdict_txt = "all identical" if not diffs else "DIFFER: " + ", ".join(diffs)
        print(f"- {w}: {len(EXACT_END_TO_END)} end-to-end x {PAIRS} seeds and "
              f"{len(EXACT_PER_LAYER)} per-layer: {verdict_txt}")

    print("\n## Failed runs\n")
    print("A run whose output check fails stops the script, so every run below passed it.\n")
    runs = PAIRS + 1
    for w in workloads:
        print(f"- {w}: parent 0 of {runs} runs failed, change 0 of {runs}")

    print("\n## Per-layer metrics, traced seed-1 run, parent -> change\n")
    print("| metric | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    for name in [m["name"] for m in doc["per_layer"]]:
        cells = []
        for w in workloads:
            p, c = traced["parent", w][name], traced["change", w][name]
            cells.append(f"= {p:.6g}" if p == c else f"{p:.6g} -> {c:.6g} ({pct(p, c)})")
        print(f"| {name} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
