#!/usr/bin/env python3
"""Builds the hyscale library and the perfbench program from this checkout,
then runs one workload under a time limit.

    python3 perfbench/run.py --workload serve_static --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload train_hybrid --seed 1 --seconds 30 --pool global
    python3 perfbench/run.py --selftest

Run it from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  The last
line of standard output is the run's JSON result.

Run guard: the workload runs in a child process with a time limit.  A
child that crashes, exits with an error, or does not exit in time is a
failed run: it is killed, the reason goes to standard error, no result
is printed, and the exit code is not 0.  A failed run is never retried
and its inputs are never changed.

--pool inline (the default) runs the library's global ThreadPool with
one worker, so ThreadPool::parallel_for never reaches the latch fault
README.md describes ("Known fault"); --pool global gives it one worker
per CPU and reproduces that fault as failed runs.
"""
import argparse
import os
import select
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_static", "stream_churn_int8", "train_hybrid")
# Wall-clock limit of one run, build excluded: twice the run's own
# length plus set-up and checks, well inside the 180 s a run may take.
def run_limit_s(seconds):
    return min(160.0, 2.0 * seconds + 20.0)


# Time a child may take to exit once it has printed its result.
EXIT_GRACE_S = 10.0


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the perfbench program; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no hyscale source tree at {ROOT} (need CMakeLists.txt and src/)")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return None
    return os.path.join(out, "perfbench")


def run_guarded(argv, limit_s):
    """Runs argv in its own process group; returns (status, stdout_text).

    status is "ok", or a description of why the run failed."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                             start_new_session=True)
    deadline = time.monotonic() + limit_s
    chunks = []
    status = None
    printed = False
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            status = (f"hung: no exit {EXIT_GRACE_S:.0f} s after printing its result"
                      if printed else f"hung: no result after {limit_s:.0f} s")
            break
        ready, _, _ = select.select([child.stdout], [], [], min(remaining, 1.0))
        if ready:
            data = os.read(child.stdout.fileno(), 65536)
            if data:
                chunks.append(data)
                if not printed and data.rstrip().endswith(b"}"):
                    # Result printed: teardown gets a short grace period.
                    printed = True
                    deadline = min(deadline, time.monotonic() + EXIT_GRACE_S)
                continue
            # EOF: the child closed stdout; wait for it to exit.
            try:
                child.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                status = f"hung: no exit after {limit_s:.0f} s (stdout closed)"
                break
            if child.returncode < 0:
                status = f"crashed with signal {signal.Signals(-child.returncode).name}"
            elif child.returncode != 0:
                status = f"exited with code {child.returncode}"
            else:
                status = "ok"
            break
    if child.poll() is None:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    child.stdout.close()
    return status, b"".join(chunks).decode(errors="replace")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", choices=("inline", "global"), default="inline")
    parser.add_argument("--selftest", action="store_true",
                        help="show that every output check catches corrupted input")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0 or args.seconds > 60:
        parser.error("--seconds must be in (0, 60]")

    binary = build()
    if binary is None:
        return 2
    if args.selftest:
        argv = [binary, "--selftest"]
        label = "selftest"
    else:
        argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--pool", args.pool]
        label = f"{args.workload} seed {args.seed} trace {args.trace} pool {args.pool}"
    status, output = run_guarded(argv, run_limit_s(args.seconds))
    if status != "ok":
        log(f"run failed: {label}: {status}")
        return 3
    sys.stdout.write(output)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
