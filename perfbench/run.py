#!/usr/bin/env python3
"""Build and run the D-Watch serving benchmark on one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rooms_batch --seed 1 --seconds 25 --trace 0

Each workload's shape (tick period, zone count, pool workers and the fix
RMSE ceiling) is fixed in perfbench/src/workload.cpp and stated in its
"why" line in BENCHMARK.json. The benchmark binary is built from this
checkout's sources into $CARGO_TARGET_DIR (default .bench_build) on the
first run and incrementally afterwards; build output goes to stderr.
The last stdout line is the binary's JSON result; the exit code is the
binary's (non-zero when a correctness gate fails or nothing could run).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_step(cmd, env, timeout):
    """Run one build step with its output on stderr; fail on error."""
    try:
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                       stderr=sys.stderr, check=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(cmd)}")
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build step failed: {e}")


def build(env):
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"no D-Watch source tree here (missing {required})")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    # Compiler and LTO temporaries stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], env, BUILD_TIMEOUT_S)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_step(["cmake", "--build", build_dir, "--target", "dwatch_perfbench",
              "-j", jobs], env, BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "dwatch_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    binary = build(env)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark run did not finish within {RUN_TIMEOUT_S} s", 3)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
