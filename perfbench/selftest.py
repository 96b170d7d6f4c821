#!/usr/bin/env python3
"""Self-tests of the benchmark, at toy size (about a minute in all).

    python3 perfbench/selftest.py

For every workload and both --trace modes: the result line parses, has
exactly the contract's keys, passes its checks against the pinned toy hash,
and reports exactly the BENCHMARK.json metrics for that mode with their
units; the details file parses and its spans are well formed. Then another
seed must change the virtual hash and fail against the pinned one. Exits
non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench", "out")


def run(workload, seed, trace, *extra):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--toy"] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert p.returncode == 0, "%s trace %d: exit %d" % (workload, trace,
                                                        p.returncode)
    lines = p.stdout.strip().splitlines()
    env = lines[-2]
    assert env.startswith("# env "), env
    json.loads(env[len("# env "):])
    result = json.loads(lines[-1])
    with open(os.path.join(OUT, "%s-trace%d.json" % (workload, trace))) as f:
        details = json.load(f)
    return result, details


def check_spans(details):
    spans = details["trace"]["spans"]
    assert spans, "no spans"
    assert details["trace"]["run_id"], "no run id"
    for i, s in enumerate(spans):
        assert s["id"] == i
        assert -1 <= s["parent"] < i, s
        assert s["end_ns"] >= s["start_ns"], s
        assert s["self_s"] >= -1e-9, s
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            assert p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"], s
    assert isinstance(details["run_pic_metrics"].get("gauges"), dict)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "pinned.json")) as f:
        pinned = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            result, details = run(w, pinned["seed"], trace)
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], result
            assert result["correct"] is True and result["failed"] == 0, result
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted[trace], (w, trace, set(got) ^ set(wanted[trace]))
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (w, k, v)
            assert details["env"]["hash_checked"], details["env"]
            assert details["virtual_hash"] == pinned["toy"][w], (w, details)
            if trace:
                check_spans(details)
            print("ok  %-12s trace %d  attempted %d" % (w, trace,
                                                      result["attempted"]))

    # A perturbed input must change the hash and be reported as failed.
    result, details = run("kernels_p4", pinned["seed"] + 1, 0, "--expect-pinned")
    assert details["virtual_hash"] != pinned["toy"]["kernels_p4"], details
    assert result["correct"] is False and result["failed"] >= 1, result
    assert result["metrics"]["ok_frac"]["value"] < 1, result
    print("ok  perturbed seed fails against the pinned hash")


if __name__ == "__main__":
    main()
