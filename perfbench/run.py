#!/usr/bin/env python3
"""End-to-end benchmark of the aetr simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the simulator libraries
from src/ plus the harness) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs one workload.
With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run (and writes its Chrome trace).

Human-readable output first; the last line of stdout is one JSON object
with exactly the keys correct, attempted, failed and metrics. The full
record (environment, simulated statistics, digests) is written next to the
traces in <build dir>/perfbench-out/. Exit status: 0 when every correctness
gate passed, 1 when one failed, 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig8_sweep", "stream_snapshot", "gateway_fleet"]
# The binary's own wall-clock limit; the whole run must end within 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, target, "perfbench")
    # Relative paths keep the gateway's Unix socket path short.
    rel = os.path.relpath(path, ROOT)
    return path if rel.startswith("..") else rel


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(ROOT, bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(bdir, "perfbench")


def source_digest():
    """sha256 over src/ and perfbench/ — identifies the measured code even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_workload(binary, bdir, workload, seed, seconds, trace):
    """Run one workload; returns the binary's result record."""
    work = os.path.join(bdir, "run", "%s-%d" % (workload, os.getpid()))
    out = os.path.normpath(os.path.join(bdir, os.pardir, "perfbench-out"))
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    cmd = [os.path.join(".", binary) if not os.path.isabs(binary) else binary,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--out-dir", out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            record = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if record is None:
        die("%s produced no result (exit status %d)"
            % (workload, proc.returncode))
    record["out_dir"] = out
    return record


def print_record(record, spec, trace):
    w = record["workload"]
    metrics = record["metrics"]
    attempted, failed = record["attempted"], record["failed"]
    print("\n== %s  seed %d  %s ==" % (w, record["seed"],
                                      "traced run" if trace else "end to end"))
    rows = [(m, metrics[m]["value"], metrics[m]["unit"]) for m in metrics]
    if not trace:
        rows.append(("fail_ratio", failed / attempted if attempted else 1.0,
                     "fraction"))
    for name, value, unit in rows:
        print("  %-36s %18.6g  %s" % (name, value, unit))
    env = record["env"]
    print("  ops: attempted %d, failed %d (timed ops %s)"
          % (attempted, failed, env.get("timed_ops", "-")))
    for reason in record["failures"]:
        print("  FAILED: " + reason)
    sim = record["sim"]
    print("  simulated: " + ", ".join("%s=%d" % kv for kv in sim.items()))
    print("  sim digest %s, input digest %s"
          % (record["sim_digest"], record["input_digest"]))
    if trace:
        unused = [m["name"] for m in spec["per_layer"]
                  if m["name"] not in metrics]
        if unused:
            print("  layers this workload does not exercise (reported as 0): "
                  + ", ".join(unused))


def contract_metrics(record, spec, trace):
    """The metric set the result line must carry."""
    metrics = record["metrics"]
    out = {}
    if trace:
        for m in spec["per_layer"]:
            value = metrics.get(m["name"], {"value": 0})["value"]
            out[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            if m["name"] not in metrics:
                die("%s did not report %s" % (record["workload"], m["name"]))
            out[m["name"]] = {"value": metrics[m["name"]]["value"],
                              "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no simulator sources (src/CMakeLists.txt) under " + ROOT)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found under " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)

    t0 = time.time()
    bdir = build_dir()
    binary = build(bdir)
    log("perfbench: build ready in %.1f s" % (time.time() - t0))

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    env = {"commit": commit(), "source_digest": source_digest(),
           "python_cpu_count": os.cpu_count(),
           "cpus_allowed": len(os.sched_getaffinity(0)),
           "seconds": args.seconds}
    records = []
    for w in workloads:
        record = run_workload(binary, bdir, w, args.seed, args.seconds,
                              args.trace)
        record["env"].update(env)
        print_record(record, spec, args.trace)
        print("  environment: " + json.dumps(record["env"], sort_keys=True))
        name = "%s-seed%d-trace%d.json" % (w, args.seed, args.trace)
        with open(os.path.join(ROOT, record["out_dir"], name), "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        records.append(record)

    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        metrics = contract_metrics(records[0], spec, args.trace)
    else:
        metrics = {}
        for r in records:
            for k, v in contract_metrics(r, spec, args.trace).items():
                metrics[r["workload"] + "." + k] = v
    result = {"correct": correct,
              "attempted": sum(r["attempted"] for r in records),
              "failed": sum(r["failed"] for r in records),
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
