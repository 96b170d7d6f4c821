#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the bounds are
judged: one run per seed, then each metric's median, quartiles and
interquartile range as a share of the median.

    python3 perfbench/spread.py --workloads kernels_p4,sweep18 \
        --seeds 1-10 [--seconds S] [--trace 0] [--json FILE]

--seconds defaults to BENCHMARK.json's run_seconds. Prints one line per
workload and metric; --json also writes the figures (with every value and
each run's repetition samples) to FILE.
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


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--json")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {}
    for w in a.workloads.split(","):
        values, runs = {}, []
        for seed in seeds_of(a.seeds):
            t0 = time.time()
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", a.trace],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            took = time.time() - t0
            if p.returncode != 0:
                sys.exit("%s seed %d: exit %d" % (w, seed, p.returncode))
            res = json.loads(p.stdout.strip().splitlines()[-1])
            with open(os.path.join(ROOT, ".bench_build", "perfbench", "out",
                                   "%s-trace%s.json" % (w, a.trace))) as f:
                samples = json.load(f)["samples"]
            runs.append({"seed": seed, "seconds": took,
                         "correct": res["correct"], "failed": res["failed"],
                         "samples": samples})
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        report[w] = {"runs": runs, "metrics": {}}
        print("%s: %d runs, longest %.1f s, all correct: %s" % (
            w, len(runs), max(r["seconds"] for r in runs),
            all(r["correct"] for r in runs)))
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            report[w]["metrics"][k] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vs}
            b = bounds.get(k)
            flag = "" if b is None else (
                "  bound %.2f%s" % (b, "  OVER" if spread > b else
                                    ("  >1/3" if spread > b / 3 else "")))
            print("  %-28s median %-12.6g spread %.4f%s" % (k, med, spread, flag))
    if a.json:
        with open(a.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
