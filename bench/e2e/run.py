#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (bench/e2e).

One workload (the last stdout line is the result object):

    python3 bench/e2e/run.py --workload edge_lb --seed 1 --seconds 20 --trace 0

All four workloads, one process each, one line per metric
(`workload metric value unit n p25 p75`), nonzero exit if any check fails:

    python3 bench/e2e/run.py [--trace 1] [--seed N] [--seconds S]

Repeated runs for bench/e2e/agree.py (seeds N, N+1, ...):

    python3 bench/e2e/run.py --repeat 5 --out runs/a

Functional smoke (every workload tiny on two seeds, traced and untraced,
plus the unknown-workload exit code):

    python3 bench/e2e/run.py --smoke

The benchmark is built from the checkout's sources into .bench_build/ at the
repository root. Python standard library only.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")
WORKLOADS = ["chain_d4", "edge_lb", "nat_churn", "scaleout_lb"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 9973
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_e2e; build output goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(workload, seed, seconds, traced, tiny=False):
    """Runs one workload process; returns its report dict (None on failure)."""
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(
        out_dir, "%s-%d-%s.json" % (workload, seed, "traced" if traced else "e2e"))
    if os.path.exists(json_path):
        os.remove(json_path)
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--json=" + json_path]
    if traced:
        trace_dir = os.path.join(BUILD, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd.append("--trace=" + trace_dir)
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("bench_e2e %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    if code != 0 or not os.path.isfile(json_path):
        log("bench_e2e %s exited with %d" % (workload, code))
        return None
    with open(json_path) as f:
        return json.load(f)


def select(report, spec, traced):
    """Reduces a report to BENCHMARK.json's metric list for the mode, checking
    names and units. Every end-to-end metric must be measured; a per-layer
    metric of a layer the workload does not cross reads 0."""
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None and traced:
            got = {"value": 0, "unit": m["unit"], "n": 0, "p25": 0, "p75": 0}
        if got is None or got["unit"] != m["unit"]:
            raise ValueError("metric %s missing or unit mismatch in %s"
                             % (m["name"], report["workload"]))
        metrics[m["name"]] = got
    # Metrics the benchmark computes others from, not reported on their own.
    internal = {"traced_mpps", "single_core_mpps"}
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unlisted = set(report["metrics"]) - listed - internal
    if unlisted:
        raise ValueError("metrics not in BENCHMARK.json: %s" % sorted(unlisted))
    correct = bool(report["correct"]) and report["failed"] == 0 and \
        report["metrics"]["fail_frac"]["value"] == 0
    return correct, metrics


def result_line(report, spec, traced):
    correct, metrics = select(report, spec, traced)
    return correct, json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    })


def smoke(spec):
    start = time.time()
    ok = True
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for traced in (False, True):
                report = run_binary(workload, seed, 0, traced, tiny=True)
                if report is None:
                    log("smoke: %s seed %d traced=%s did not run"
                        % (workload, seed, traced))
                    ok = False
                    continue
                try:
                    correct, _ = select(report, spec, traced)
                except ValueError as e:
                    log("smoke: %s" % e)
                    ok = False
                    continue
                if not correct:
                    log("smoke: %s seed %d: fail_frac != 0" % (workload, seed))
                    ok = False
    bad = subprocess.run([BINARY, "--workload=no-such-workload", "--json=-"],
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if bad.returncode != 1:
        log("smoke: unknown --workload exited %d, expected 1" % bad.returncode)
        ok = False
    log("smoke: %s in %.1f s" % ("PASS" if ok else "FAIL", time.time() - start))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, seeds seed, seed+1, ...")
    ap.add_argument("--out", help="directory to keep each run's report in")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if args.workload != "all" and args.workload not in WORKLOADS:
        log("unknown workload '%s'; registered workloads: %s"
            % (args.workload, " ".join(WORKLOADS)))
        return 1
    try:
        spec = load_spec()
        build()
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        log("run.py: cannot build the benchmark: %s" % e)
        return 1
    if args.smoke:
        return smoke(spec)

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    traced = args.trace == 1
    if args.workload != "all" and args.repeat == 1 and not args.out:
        report = run_binary(args.workload, args.seed, seconds, traced)
        if report is None:
            return 1
        try:
            correct, line = result_line(report, spec, traced)
        except ValueError as e:
            log("run.py: %s" % e)
            return 1
        print(line)
        return 0 if correct else 1

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        for i in range(args.repeat):
            seed = args.seed + i
            report = run_binary(workload, seed, seconds, traced)
            if report is None:
                status = 1
                continue
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                with open(os.path.join(args.out, "%s-%d.json"
                                       % (workload, seed)), "w") as f:
                    json.dump(report, f)
            try:
                correct, metrics = select(report, spec, traced)
            except ValueError as e:
                log("run.py: %s" % e)
                status = 1
                continue
            status = status if correct else 1
            for name, m in metrics.items():
                print("%s %s %.6g %s %d %.6g %.6g"
                      % (workload, name, m["value"], m["unit"], m["n"],
                         m["p25"], m["p75"]))
            sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
