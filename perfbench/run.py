#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own cargo package
(perfbench/Cargo.toml) with path dependencies on the crates under
crates/; it is built offline into $CARGO_TARGET_DIR (default
.bench_build). The last line of standard output is the JSON result; it
is printed only after it has been checked against BENCHMARK.json.
Traced runs write their spans to <target dir>/spans/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tpch_olap", "oltp_point", "htap_chbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number of at least 1")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong_unit = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {wrong_unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    for need in ("Cargo.toml", "crates/cluster/Cargo.toml", "crates/workloads/Cargo.toml"):
        if not (ROOT / need).is_file():
            fail(f"{need} is missing: run from a full checkout of the repository")

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
                               stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail(f"build failed with code {built.returncode}")

    trace = args.trace == "1"
    cmd = [
        str(target / "release" / "imci_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if trace:
        cmd += ["--spans", str(target / "spans" / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
    lines = ran.stdout.splitlines()
    if ran.returncode != 0 or not lines:
        sys.stdout.write(ran.stdout)
        fail(f"{args.workload} exited with code {ran.returncode}")
    check_result(lines[-1], trace)
    sys.stdout.write(ran.stdout)


if __name__ == "__main__":
    main()
