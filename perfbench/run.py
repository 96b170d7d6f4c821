#!/usr/bin/env python3
"""picpar host-cost benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench, clears every PICPAR_* variable, pins the run to the
CPUs the workload needs, and runs perfbench/perfbench once. The last stdout
line is the result object {"correct", "attempted", "failed", "metrics"};
the line before it records the host and build. Details (samples, hashes,
spans, run_pic counters) go to .bench_build/perfbench/out/.

Extra flags: --toy shrinks every workload (self-tests); --expect-pinned
checks the virtual hash against the pinned one whatever the seed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
OUT = os.path.join(BUILD, "out")
WORK = os.path.join(BUILD, "work")

WORKLOADS = ("kernels_p4", "sweep18")
# CPUs each workload runs on. The sequential engine runs one simulated
# rank at a time, so kernels_p4 uses one CPU: unpinned, rank handoffs
# migrate between cores and the run times bimodally. sweep18 runs two
# sweep workers.
CPUS = {"kernels_p4": 1, "sweep18": 2}
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; the log goes to stderr
    only on failure so stdout stays the result. Compiler temporaries go
    under the build directory, not the system temp directory."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            if cmd[1] == "-S":
                shutil.rmtree(BUILD, ignore_errors=True)
            fail("build failed: " + " ".join(cmd))


def clean_env():
    """Drop every PICPAR_* variable: parallel engine, workers, tracing,
    analyzer, crash injection, sweep cache and memory report must not
    change what is measured. Returns the names dropped."""
    env = dict(os.environ)
    dropped = sorted(k for k in env if k.startswith("PICPAR_"))
    for k in dropped:
        del env[k]
    return env, dropped


def source_digest():
    """sha256 over the library and benchmark sources, in path order — the
    build's identity when the checkout is not a git repository."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for d, dirs, files in sorted(os.walk(base)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".txt", ".py", ".json")):
                    path = os.path.join(d, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_sha():
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def compiler():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                k, v = line.rstrip("\n").split("=", 1)
                cache[k.split(":")[0]] = v
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        ver = subprocess.run([cxx, "--version"], stdout=subprocess.PIPE,
                             text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        ver = "unknown"
    return cxx, ver, cache.get("CMAKE_BUILD_TYPE", "")


def pick_cpus(n):
    """The last n CPUs of the inherited affinity mask."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-n:] if len(allowed) >= n else allowed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--expect-pinned", action="store_true")
    a = ap.parse_args()
    if a.seed < 0:
        fail("--seed must be >= 0")
    if a.seconds <= 0:
        fail("--seconds must be > 0")

    with open(os.path.join(HERE, "pinned.json")) as f:
        pinned = json.load(f)
    build()
    env, dropped = clean_env()

    affinity = sorted(os.sched_getaffinity(0))
    cpus = pick_cpus(CPUS[a.workload])
    os.sched_setaffinity(0, cpus)

    os.makedirs(OUT, exist_ok=True)
    details = os.path.join(OUT, "%s-trace%s.json" % (a.workload, a.trace))
    if os.path.exists(details):
        os.remove(details)
    cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace,
           "--work", WORK, "--details", details]
    size = "toy" if a.toy else "full"
    if a.toy:
        cmd.append("--toy")
    if a.expect_pinned or a.seed == pinned["seed"]:
        cmd += ["--expect-hash", pinned[size][a.workload]]

    try:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % p.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")

    cxx, cxx_version, build_type = compiler()
    record = {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "pinned_cpus": cpus,
        "compiler": cxx,
        "compiler_version": cxx_version,
        "build_type": build_type,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "cleared_env": dropped,
        "size": size,
        "pinned_seed": pinned["seed"],
        "hash_checked": "--expect-hash" in cmd,
    }
    with open(details) as f:
        d = json.load(f)
    d["env"] = record
    with open(details, "w") as f:
        json.dump(d, f)
        f.write("\n")
    print("# env " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
