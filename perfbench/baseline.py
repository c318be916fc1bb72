#!/usr/bin/env python3
"""Measures the benchmark baseline: every workload, one run per seed.

    python3 perfbench/baseline.py --seeds 1-10 [--trace 0|1] [--out FILE]

For each workload and metric it records the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, (q3 - q1) /
median, next to each metric's bound from BENCHMARK.json, plus every run's
correct/attempted/failed. The spread of each end-to-end metric other than
setup_s must stay within its bound. Runs go through perfbench/run.py, one
at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.time() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None, None, elapsed
    lines = proc.stdout.strip().split("\n")
    prov = next((json.loads(l.split(" ", 1)[1]) for l in lines
                 if l.startswith("PROVENANCE ")), None)
    return json.loads(lines[-1]), prov, elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset (default: all)")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    seeds = parse_seeds(args.seeds)

    out = {"seeds": seeds, "trace": args.trace,
           "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        runs, values = [], {}
        for seed in seeds:
            res, prov, elapsed = run_one(name, seed, spec["run_seconds"],
                                         args.trace)
            if res is None:
                print(f"{name} seed {seed}: run failed", flush=True)
                runs.append({"seed": seed, "error": True})
                ok = False
                continue
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"],
                         "elapsed_s": round(elapsed, 1),
                         "loadavg_1m": round(os.getloadavg()[0], 1),
                         "provenance": prov})
            for metric, m in res["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"{elapsed:.0f} s", flush=True)
        stats = {}
        for metric, v in values.items():
            med = statistics.median(v)
            entry = {"median": med, "n": len(v), "values": v}
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
                entry.update(q1=q1, q3=q3,
                             spread=(q3 - q1) / med if med else None)
            if bounds.get(metric) is not None:
                entry["bound"] = bounds[metric]
                if (metric != "setup_s" and entry.get("spread") is not None
                        and entry["spread"] > entry["bound"]):
                    ok = False
            stats[metric] = entry
            print(f"  {metric:34s} median {med:<12.6g} spread "
                  f"{entry.get('spread') if entry.get('spread') is not None else float('nan'):.4f}"
                  + (f" (bound {bounds[metric]})" if bounds.get(metric) else ""))
        out["workloads"][name] = {"runs": runs, "metrics": stats}

    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
