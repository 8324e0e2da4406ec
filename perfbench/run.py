#!/usr/bin/env python3
"""Build and run the end-to-end BPart benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: etl-cold, analytics-warm, vertex-cut, dynamic-serve. The script
configures and builds perfbench/ (a CMake package that compiles the library
from ../src) in Release mode under $CARGO_TARGET_DIR (default .bench_build),
then runs the e2e_bench binary. Build output goes to stderr; the binary's
stdout passes through, so the last stdout line is the result JSON.

--small runs the same code on a 2^12-vertex input (self-tests only).
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("etl-cold", "analytics-warm", "vertex-cut", "dynamic-serve")


def refuse_bpart_env():
    stray = sorted(k for k in os.environ if k.startswith("BPART_"))
    if stray:
        sys.exit("perfbench: %s set; BPART_* variables change the workload, "
                 "unset them" % ", ".join(stray))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configure until a generate step has completed once.
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2e_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="2^12-vertex input, for the self-tests")
    ap.add_argument("--inject-fault", choices=("cc-label",),
                    help="corrupt one result before its check (self-tests)")
    args = ap.parse_args()
    refuse_bpart_env()
    # Turn SIGTERM into an exception so the child is stopped and its
    # scratch directory removed below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work = os.path.join(root, "perfbench-work")
    size = ["--vertices-log2", "12"] if args.small else []
    try:
        binary = build(os.path.join(root, "perfbench-release"))
        # The input is written by a process of its own (see e2e_bench.cpp).
        subprocess.run([binary, "--generate", "--seed", str(args.seed),
                        "--work-dir", work] + size,
                       stdout=sys.stderr, check=True)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build or input generation failed: %s" % e)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work] + size
    if args.inject_fault:
        cmd += ["--inject-fault", args.inject_fault]
    if args.trace:
        traces = os.path.join(work, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        # The binary removes its scratch itself; this covers a crash.
        shutil.rmtree(os.path.join(work, "tmp", str(proc.pid)),
                      ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
