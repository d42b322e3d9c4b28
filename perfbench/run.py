#!/usr/bin/env python3
"""Benchmark entry point: build scorecard, run one workload, print JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles ../src) under $CARGO_TARGET_DIR
(default .bench_build); later runs reuse the build. The last line of
stdout is the result object; build logs and diagnostics go to stderr.
See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build scorecard; returns its path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "scorecard"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "scorecard")


def stop(signum, _frame):
    raise SystemExit(128 + signum)


def run_scorecard(cmd, timeout_s):
    """Run scorecard; returns (exit status, stdout, peak RSS in KiB).

    scorecard is killed and reaped if it outlives `timeout_s` or if this
    script is stopped by SIGTERM or SIGINT.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    reaped = False
    try:
        out = proc.stdout.read().decode()
        # wait4 rather than proc.wait(): it also returns the child's own
        # resource usage, whose ru_maxrss is scorecard's peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        timer.cancel()
        proc.stdout.close()
        if not reaped:
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def scorecard_result(cmd, timeout_s):
    """Run scorecard and parse its output: (Parsed, peak RSS in KiB), or
    None, after logging why, when it failed or printed nonsense."""
    status, out, rss_kib = run_scorecard(cmd, timeout_s)
    if status != 0:
        log("%s exited with status %d" % (" ".join(cmd[1:]), status))
        return None
    try:
        return benchlib.parse_scorecard_output(out), rss_kib
    except ValueError as e:
        log("unreadable scorecard output: %s" % e)
        return None


def main():
    start = time.monotonic()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError as e:
        log("run from the checkout root (BENCHMARK.json: %s)" % e)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no library sources under src/ to build the benchmark from")
        return 2

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    base = [exe, "--workload", args.workload, "--seed", str(args.seed)]
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    # Kill a hung scorecard before the run limit; the first run of a
    # checkout spent most of the limit building and gets its own room.
    limit = RUN_LIMIT_S - (time.monotonic() - start)
    got = scorecard_result(cmd, max(limit, 2.0 * args.seconds + 60))
    if got is None:
        return 1
    parsed = got[0]
    metrics = benchlib.summarize(parsed, warn=log)

    if args.trace == 0:
        # Peak RSS comes from a process that does a fixed amount of work
        # (--seconds 0: the reference run and the minimum number of
        # repetitions), since heap growth depends on how many runs fit
        # into the timed seconds. Its runs are checked operations too.
        got = scorecard_result(base + ["--seconds", "0", "--trace", "0"],
                               max(RUN_LIMIT_S - (time.monotonic() - start), 30.0))
        if got is None:
            return 1
        rss_parsed, rss_kib = got
        parsed.attempted += rss_parsed.attempted
        parsed.failed += rss_parsed.failed
        metrics["peak_rss_mb"] = {"value": rss_kib / 1024.0, "unit": "MiB"}
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = benchlib.check_metrics(metrics, expected)
    for p in problems:
        log(p)
    if problems and parsed.failed == 0:
        return 1
    correct = parsed.failed == 0 and parsed.attempted > 0
    print(benchlib.result_line(correct, parsed.attempted, parsed.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
