#!/usr/bin/env python3
"""Runs one benchmark workload against the repository it sits in.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the program and the
benchmark code from source with perfbench/build.py into the build directory
($CARGO_TARGET_DIR, default .bench_build); later calls reuse the build while
no source file changes. The last line of standard output is one
JSON object: correct, attempted, failed and the metrics BENCHMARK.json lists
for the mode (end_to_end with --trace 0, per_layer with --trace 1).
Per-run records and span files are kept under <build dir>/perfbench/runs.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean
import build  # noqa: E402  (perfbench/build.py)

START = time.monotonic()
RUN_LIMIT_S = 170  # whole run, once built
BUILD_LIMIT_S = 850  # whole run, when it has to build first
HEAP = "3g"

# Spark 4 on JDK 17 needs the module opens spark-submit would add (the same
# list as the repository's build.sbt).
JVM_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandleAccessor=false",
]

def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_bounded(cmd, cwd, env, limit_s):
    """Runs cmd in its own process group; kills the group at the deadline and
    always waits for it to end. Returns (exit code or None on timeout, stdout)."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, limit_s))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def check_fingerprint(work, record):
    """The same (workload, seed) must always produce the same input graph;
    records whose fingerprints differ are never compared."""
    os.makedirs(os.path.join(work, "fingerprints"), exist_ok=True)
    path = os.path.join(work, "fingerprints", f"{record['workload']}-seed{record['seed']}.json")
    fp = record["fingerprint"]
    if os.path.exists(path):
        with open(path) as fh:
            seen = json.load(fh)
        if seen != fp:
            print(f"perfbench: input fingerprint changed for this (workload, seed): {seen} -> {fp}",
                  file=sys.stderr)
            return False
    else:
        with open(path, "w") as fh:
            json.dump(fp, fh)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ["BENCHMARK.json", "build.sbt", "src/main/scala", "perfbench/src/main/scala"]:
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of the repository")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = build.default_work(root)
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    try:
        classpath, built = build.build(root, work, BUILD_LIMIT_S - RUN_LIMIT_S)
    except RuntimeError as e:
        fail(f"build failed: {e}")
    limit = (BUILD_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - START)

    runs = os.path.join(work, "runs")
    cmd = ([build.java_bin(), f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
            f"-Dlog4j2.configurationFile={os.path.join(root, 'perfbench', 'log4j2.properties')}"]
           + JVM_OPENS
           + ["-cp", classpath, "repro.perfbench.Main", "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--out", runs])
    code, out = run_bounded(cmd, root, dict(os.environ), limit)
    sys.stdout.write(out)
    if code != 0:
        fail("benchmark timed out" if code is None else f"benchmark exited with {code}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(runs, stem + ".json")) as fh:
        record = json.load(fh)

    correct = record["failed"] == 0 and record["attempted"] >= 1
    correct = check_fingerprint(work, record) and correct
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
            correct = False
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
