#!/usr/bin/env python3
"""Steadiness check: runs every workload several times, interleaved, each
run with its own seed, and prints each end-to-end metric's median,
quartiles and spread against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads serve_static --first-seed 101
    python3 perfbench/steady.py --runs 3 --trace 1      # per-layer medians
    python3 perfbench/steady.py --runs 5 --workloads train_hybrid

Spread is (Q3 - Q1) / median, with the quartiles Python's
statistics.quantiles(values, n=4) gives.  A metric is "steady" when its
spread is below a third of its bound.  Failed runs (crash, hang, no
result) are listed and never retried.  --out writes every run's result
as JSON.
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


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(spec, workload, seed, trace):
    argv = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(spec["run_seconds"]),
                                    "--trace", str(trace)]
    t0 = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.monotonic() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        reason = done.stderr.strip().splitlines()[-1] if done.stderr.strip() else "no output"
        return {"workload": workload, "seed": seed, "ok": False, "reason": reason,
                "wall_s": wall}
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "ok": True, "result": result, "wall_s": wall}


def spread(values):
    if len(values) < 2:
        return None, None, None, None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args()
    chosen = args.workloads.split(",")  # run.py rejects unknown names

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in chosen:  # interleaved: one run of each workload per seed
            r = run_one(spec, w, seed, args.trace)
            runs.append(r)
            status = "ok" if r["ok"] else f"FAILED ({r['reason']})"
            print(f"[{len(runs)}/{args.runs * len(chosen)}] {w} seed {seed}: {status} "
                  f"in {r['wall_s']:.1f} s", file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)

    for w in chosen:
        mine = [r for r in runs if r["workload"] == w]
        good = [r["result"] for r in mine if r["ok"]]
        failed_runs = [r for r in mine if not r["ok"]]
        print(f"\n{w}: {len(good)} of {len(mine)} runs completed")
        for r in failed_runs:
            print(f"  failed run: seed {r['seed']}: {r['reason']}")
        if not good:
            continue
        incorrect = [r for r in good if not r["correct"]]
        if incorrect:
            print(f"  {len(incorrect)} runs failed their output checks")
        shares = sorted({(r["failed"], r["attempted"]) for r in good})
        fail_shares = {f / a for f, a in shares}
        print(f"  failed-operation share: {sorted(fail_shares)}")
        metric_names = sorted({k for r in good for k in r["metrics"]})
        print(f"  {'metric':28} {'unit':>8} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in metric_names:
            values = [r["metrics"][m]["value"] for r in good if m in r["metrics"]]
            unit = good[0]["metrics"][m]["unit"]
            med, q1, q3, s = spread(values)
            if med is None:
                print(f"  {m:28} {unit:>8} {values[0]:12.5g}  (one value)")
                continue
            bound = bounds.get(m, {}).get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("steady" if s < bound / 3 else
                           "within bound" if s <= bound else "TOO WIDE")
                if m == "setup_s":
                    verdict += " (spread not gated)"
            print(f"  {m:28} {unit:>8} {med:12.5g} {q1:12.5g} {q3:12.5g} {s:7.3f} "
                  f"{'' if bound is None else format(bound, '6.2f'):>6}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
