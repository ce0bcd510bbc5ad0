#!/usr/bin/env python3
"""Time-to-epsilon benchmark: builds the two programs and runs one workload.

Run from the repository root:

    python3 e2e_bench/run.py --workload centroid-er-100k --seed 1 \
        --seconds 40 --trace 0
    python3 e2e_bench/run.py --self-test

The first call configures and builds e2e_bench/ (which compiles ../src)
into $CARGO_TARGET_DIR/e2e_bench, default .bench_build/e2e_bench. Build
output goes to stderr. Standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Exits non-zero, printing no result, when the build or a
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
WORKLOADS = ["centroid-er-100k", "gm-er-30k", "cluster-er-20k-x4"]


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e_bench")


def build():
    """Configures once, then (re)builds both programs; returns their paths."""
    out = build_dir()
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(["ninja", "--version"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr) != 0:
        raise BenchError("build failed")
    return os.path.join(out, "ddc_tte"), os.path.join(out, "ddc_tte_traced")


def drive(binary, workload, seed, seconds, extra=()):
    """Runs one program invocation and returns its JSON record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{os.path.basename(binary)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(cmd)} printed nothing")
    return json.loads(lines[-1])


def span_metrics(path):
    """Self time of `run` spans (per repetition) and `round` spans (per
    round), and spans recorded per round.

    A span's self time is its duration minus the part covered by its
    children; children never overlap because one thread records them.
    """
    spans = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            s = json.loads(line)
            s["child_ns"] = 0
            spans[s["id"]] = s
    for s in spans.values():
        if s["parent"]:
            spans[s["parent"]]["child_ns"] += s["end_ns"] - s["start_ns"]
    self_ns = {}
    count = {}
    for s in spans.values():
        self_ns[s["name"]] = self_ns.get(s["name"], 0) + (
            s["end_ns"] - s["start_ns"] - s["child_ns"])
        count[s["name"]] = count.get(s["name"], 0) + 1
    rounds = count.get("round", 0)
    runs = count.get("run", 0)
    if rounds == 0 or runs == 0:
        raise BenchError(f"no round spans in {path}")
    return {
        "self.run_s": (self_ns["run"] / runs * 1e-9, "s"),
        "self.round_ms": (self_ns["round"] / rounds * 1e-6, "ms"),
        "trace.spans_per_round": (len(spans) / rounds, "count"),
    }


def metric_list(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def collect(binaries, workload, seed, seconds, trace, nodes=None):
    """Runs the workload; returns (record, metrics {name: (value, unit)}).

    Untraced: one run of the untraced program for the whole budget, over
    the program's default set of instances (graphs) derived from the seed.
    Traced: instance 0 only, half the budget untraced and half traced;
    the traced program's cluster loop must land on the untraced run's
    node-0 digest.
    """
    untraced, traced = binaries
    extra = ["--nodes", str(nodes)] if nodes else []
    if not trace:
        record = drive(untraced, workload, seed, seconds, extra)
        metrics = {k: (v["value"], v["unit"])
                   for k, v in record["metrics"].items()}
        return record, metrics

    extra += ["--instances", "1"]
    plain = drive(untraced, workload, seed, seconds / 2, extra)
    spans_path = os.path.join(build_dir(), f"spans-{workload}-{seed}.jsonl")
    record = drive(traced, workload, seed, seconds / 2,
                   extra + ["--spans", spans_path])
    metrics = {k: (v["value"], v["unit"]) for k, v in record["metrics"].items()}
    metrics.update(span_metrics(spans_path))
    metrics["trace.overhead_s"] = (
        metrics["time_to_eps_s"][0] - plain["metrics"]["time_to_eps_s"]["value"],
        "s")
    record["attempted"] += plain["attempted"]
    record["failed"] += plain["failed"]
    record["fail_reasons"] += ["untraced " + r for r in plain["fail_reasons"]]
    if (plain["digest"], plain["metrics"]["rounds_to_eps"]["value"]) != (
            record["digest"], record["metrics"]["rounds_to_eps"]["value"]):
        record["failed"] += 1
        record["fail_reasons"].append(
            "traced run differs from untraced run (digest or rounds_to_eps)")
    return record, metrics


def report(record, metrics, names):
    """Prints the readable record, then returns the result object."""
    print(f"workload {record['workload']} seed {record['seed']} "
          f"nodes {record['nodes']} instances {record['instances']}")
    print("host " + json.dumps(record["host"], sort_keys=True))
    print(f"round_ms_tail is p{record['tail_percentile']:.2f} of "
          f"{record['round_samples']} rounds")
    print(f"digest {record['digest']}")
    missing = [n for n, _ in names if n not in metrics]
    wrong_unit = [n for n, u in names if n in metrics and metrics[n][1] != u]
    if missing or wrong_unit:
        raise BenchError(f"missing metrics {missing}, unit mismatch "
                         f"{wrong_unit}")
    for name, unit in names:
        print(f"{name} {metrics[name][0]!r} {unit}")
    # Printed by name but not bounded: see README.md.
    for name in ("round_ms_tail", "final_error"):
        if name not in dict(names):
            print(f"{name} {metrics[name][0]!r} {metrics[name][1]}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"fail_share {failed / attempted!r} ratio "
          f"({failed} of {attempted} repetitions failed)")
    for reason in record["fail_reasons"]:
        print(f"FAILED {reason}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in names},
    }


def self_test(binaries):
    """Runs all three workloads at n = 512 in both modes and checks that
    every named metric is printed with its unit, that the traced cluster
    loop matches ShardCluster::run_round(), and that the 4-shard digest
    equals the SoA engine's at the same round."""
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            record, metrics = collect(binaries, workload, 1, 0.5, trace,
                                      nodes=512)
            try:
                result = report(record, metrics, metric_list(section))
            except BenchError as exc:
                problems.append(f"{workload} trace={trace}: {exc}")
                continue
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: "
                                f"{record['fail_reasons']}")
    # The traced-vs-untraced digest comparison inside collect() covers the
    # cluster loop; the SoA comparison needs the reference engine.
    record = drive(binaries[0], "cluster-er-20k-x4", 1, 0.5,
                   ["--nodes", "512", "--check-soa"])
    if record["digest"] != record["soa_digest"]:
        problems.append(f"cluster digest {record['digest']} != SoA digest "
                        f"{record['soa_digest']} at the same round")
    for p in problems:
        log("self-test FAILED: " + p)
    if problems:
        return 1
    log("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        binaries = build()
        if args.self_test:
            return self_test(binaries)
        names = metric_list("per_layer" if args.trace else "end_to_end")
        record, metrics = collect(binaries, args.workload, args.seed,
                                  args.seconds, args.trace)
        result = report(record, metrics, names)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        log(f"run.py: {exc}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
