#!/usr/bin/env python3
"""wastesim benchmark entry point.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
simulator library from the checkout's src/ tree) into .bench_build/, runs
one workload in its own process and prints the driver's result object as
the last line of standard output, after a line of host metadata.

    python3 perfbench/run.py --workload cells|sweep|store-stream \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

--selftest checks the correctness gate: a golden cache with one tampered
cell must make the `cells` workload report failed cells and exit non-zero.

Every run also leaves its host metadata, details and result in
.bench_build/results/<workload>-seed<N>-trace<T>.json, and a traced run
its spans in .bench_build/out/spans-<workload>-seed<N>.json.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(".bench_build", "out")  # relative to ROOT
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
DRIVER = os.path.join(BUILD_DIR, "perfbench")
GOLDEN = os.path.join(ROOT, "tests", "golden", "wastesim_sweep_4x4.cache")
WORKLOADS = ("cells", "sweep", "store-stream")

# A run must end within 180 s of its start; the driver gets what is left
# after the build, less a margin for reporting.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 840


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(deadline):
    """Configure once and build incrementally; False on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=max(1, deadline - time.time()))
            except subprocess.TimeoutExpired:
                log("build timed out")
                return False
            if proc.returncode != 0:
                log("build failed: " + " ".join(cmd))
                return False
    return True


def run_driver(args, deadline):
    """Run the driver; (returncode, stdout lines), or None on timeout."""
    proc = subprocess.Popen([DRIVER] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        log("driver timed out: " + " ".join(args))
        return None
    finally:
        # Also on SIGTERM (SystemExit): never leave the driver running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out.splitlines()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """SHA-256 over the simulator and benchmark sources: identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def host_metadata(details):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": details.get("compiler", "unknown"),
        "build_type": details.get("build_type", "unknown"),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
    }


def parse_last(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def selftest(deadline):
    tampered = os.path.join(ROOT, OUT_DIR, "golden-tampered.cache")
    res = run_driver(["--golden", GOLDEN, "--tamper-golden", tampered],
                     deadline)
    if res is None or res[0] != 0:
        log("selftest: could not write a tampered golden cache")
        return 1
    res = run_driver(["--workload", "cells", "--seed", "1", "--seconds", "1",
                      "--trace", "0", "--golden", tampered, "--out", OUT_DIR],
                     deadline)
    os.remove(tampered)
    if res is None:
        return 1
    rc, lines = res
    result = parse_last(lines)
    ok = (rc != 0 and result is not None and result["failed"] > 0
          and not result["correct"])
    frac = result["failed"] / result["attempted"] if result else float("nan")
    print("selftest %s: tampered golden cell gave exit %d, failed_frac %.3f"
          % ("ok" if ok else "FAILED", rc, frac))
    return 0 if ok else 1


def main():
    start = time.time()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    opt = ap.parse_args()
    if not opt.selftest and opt.workload is None:
        ap.error("--workload is required")

    for need in (os.path.join(ROOT, "src", "system", "system.hh"), GOLDEN):
        if not os.path.exists(need):
            log("missing %s: run from a full wastesim checkout"
                % os.path.relpath(need, ROOT))
            return 2

    built_fresh = not os.path.exists(DRIVER)
    if not build(start + BUILD_LIMIT_S):
        return 2
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    # The first run in a checkout pays for the build; later runs must end
    # within RUN_LIMIT_S of their start.
    deadline = start + RUN_LIMIT_S
    if built_fresh:
        deadline = min(start + BUILD_LIMIT_S + 55, time.time() + RUN_LIMIT_S)

    if opt.selftest:
        return selftest(deadline)

    res = run_driver(["--workload", opt.workload, "--seed", str(opt.seed),
                      "--seconds", str(opt.seconds),
                      "--trace", str(opt.trace),
                      "--golden", GOLDEN, "--out", OUT_DIR], deadline)
    if res is None:
        return 3
    rc, lines = res
    result = parse_last(lines)
    if result is None:
        log("driver exited %d without a result" % rc)
        return rc or 4
    details = {}
    for line in lines[:-1]:
        try:
            details = json.loads(line)["details"]
        except (ValueError, KeyError, TypeError):
            print(line)
    host = host_metadata(details)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    record = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json"
                          % (opt.workload, opt.seed, opt.trace))
    with open(record, "w") as f:
        json.dump({"host": host, "details": details, "result": result}, f,
                  indent=1)
    print(json.dumps({"host": host, "details": details}))
    print(lines[-1], flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
