#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload local-read --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree. It builds `foc` and the benchmark
client (perfbench/bench.ml) with dune, runs the client in a fresh work
directory under .bench_work/, and relays the client's report. The last
line of standard output is the result as one JSON object. With --trace 1
the spans of the traced window are kept in .bench_out/. The exit code is
0 only when the run completed and every answer was verified.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ["local-read", "read-write", "relational-stream"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the program's sources, for trees that are not git checkouts."""
    h = hashlib.sha256()
    paths = ["dune-project"]
    for top in ("lib", "bin"):
        for d, _, files in os.walk(top):
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("dune-project", "bin/foc_cli.ml", "lib", "perfbench/bench.ml"):
        if not os.path.exists(need):
            fail(f"{need} not found: run this from the root of a foc source tree")

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/foc_cli.exe", "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)
    if build.returncode != 0:
        fail("build failed", 3)

    os.makedirs(".bench_work", exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=".bench_work")
    cpu = max(os.sched_getaffinity(0))
    facts = {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "commit": commit(),
        "source_sha256": source_digest(),
    }
    cmd = [
        os.path.abspath("_build/default/perfbench/bench.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--foc", os.path.abspath("_build/default/bin/foc_cli.exe"),
        "--work", os.path.abspath(work),
        "--facts", json.dumps(facts),
        "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
    ]
    # The client, the daemon and the reference kernel all run on one CPU:
    # in a closed loop with one connection they take turns anyway, and the
    # kernel then times the CPU the daemon runs on. In trial runs of
    # read-write the host-speed-scaled figures moved 4% between runs of one
    # seed this way and 10% with the processes left to migrate.
    os.sched_setaffinity(0, {cpu})
    # its own process group, so that the daemons it spawns go with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    finally:
        kill_group(proc.pid)

    if args.trace == 1 and os.path.exists(os.path.join(work, "spans.json")):
        os.makedirs(".bench_out", exist_ok=True)
        shutil.move(os.path.join(work, "spans.json"),
                    os.path.join(".bench_out", f"spans-{args.workload}-{args.seed}.json"))
    shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(out)
        fail(f"no result line (client exit code {proc.returncode})", 5)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
