#!/usr/bin/env python3
"""Steadiness and clean-checkout checks for the benchmark.

Steadiness: run each workload RUNS times in each of SETS sets, the sets
alternating run by run (A B, B A, A B, ...) so that slow drift of the
machine lands on both. For every end-to-end metric print each set's
median and quartiles, the spread (q3 - q1) / median against a third of
the metric's bound, and how much worse the last set's median is than the
first's against the bound.

    python3 perfbench/steady.py --workloads oltp_point --runs 5 --sets 1
    python3 perfbench/steady.py --runs 10 --sets 2

Clean checkouts: copy the files git would commit into a fresh directory
and run one short untraced and one short traced run there, building
offline from scratch; then check that a directory holding only
BENCHMARK.json and the benchmark's own files fails fast without printing
a result.

    python3 perfbench/steady.py --checkouts

Run from the repository root. Logs go to .bench_build/steady/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOGS = ROOT / ".bench_build" / "steady"


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(cwd, workload, seed, seconds, trace, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=1000)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    result = None
    if p.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return p.returncode, result, wall, p.stdout + p.stderr


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    s = spec()
    seconds = args.seconds or s["run_seconds"]
    workloads = args.workloads or [w["name"] for w in s["workloads"]]
    LOGS.mkdir(parents=True, exist_ok=True)
    log = LOGS / f"steady-{int(time.time())}.jsonl"
    ok = True
    for w in workloads:
        values = [dict() for _ in range(args.sets)]
        for r in range(args.runs):
            order = list(range(args.sets))
            if r % 2:
                order.reverse()
            for k in order:
                seed = args.first_seed + r
                code, result, wall, out = run_once(ROOT, w, seed, seconds, 0)
                with log.open("a") as f:
                    f.write(json.dumps({"workload": w, "set": k, "seed": seed, "code": code,
                                        "wall_s": wall, "result": result}) + "\n")
                if result is None or not result["correct"] or result["failed"]:
                    print(f"{w} set {k} seed {seed}: FAILED (code {code})\n{out[-2000:]}")
                    ok = False
                    continue
                steal = next((line[2:] for line in out.splitlines()
                              if line.startswith("# host stole")), "")
                print(f"{w} set {k} seed {seed}: {wall:.0f}s "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
                      + f" | {steal}", flush=True)
                for m, v in result["metrics"].items():
                    values[k].setdefault(m, []).append(v["value"])
        print(f"\n== {w}: {args.runs} runs x {args.sets} sets, {seconds}s each")
        print(f"{'metric':<14}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'max':>7}{'drift':>9}")
        for m in s["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first_median = None
            for k in range(args.sets):
                xs = values[k].get(name, [])
                if not xs:
                    continue
                q1, med, q3 = quartiles(xs)
                spread = (q3 - q1) / med if med else float("inf")
                drift = ""
                if first_median is None:
                    first_median = med
                else:
                    worse = (med - first_median) / first_median
                    if m["better"] == "higher":
                        worse = -worse
                    drift = f"{worse:+.3f}"
                    if worse > bound:
                        ok = False
                        drift += "!"
                flag = "" if name == "setup_s" or spread < bound / 3 else "!"
                if flag:
                    ok = False
                print(f"{name:<14}{k:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>8.3f}{flag:1}{bound / 3:>7.3f}{drift:>9}")
    print(f"\nlog: {log}\n{'STEADY' if ok else 'NOT STEADY'}")
    return ok


def copy_files(dest, files):
    if dest.exists():
        shutil.rmtree(dest)
    for rel in files:
        src = ROOT / rel
        if src.is_file():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def checkouts(args):
    s = spec()
    listed = subprocess.run(["git", "ls-files", "-co", "--exclude-standard"], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, check=True).stdout.split()
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    ok = True

    full = LOGS / "clean-checkout"
    copy_files(full, listed)
    for trace in (0, 1):
        code, result, wall, out = run_once(full, s["workloads"][0]["name"], 1, 2, trace, env)
        good = code == 0 and result is not None and result["correct"]
        ok &= good
        print(f"clean checkout, trace {trace}: code {code} in {wall:.0f}s, "
              f"{'result ok' if good else 'FAILED'}")
        if not good:
            print(out[-3000:])

    bare = LOGS / "bench-only"
    own = [f for f in listed if f == "BENCHMARK.json"
           or any(f.startswith(p.rstrip("/") + "/") for p in s["paths"])]
    copy_files(bare, own)
    code, result, wall, out = run_once(bare, s["workloads"][0]["name"], 1, 2, 0, env)
    good = code != 0 and result is None and wall < 180
    ok &= good
    print(f"benchmark files only: code {code} in {wall:.0f}s, "
          f"{'fails without a result as it should' if good else 'WRONG'}")
    shutil.rmtree(full)
    shutil.rmtree(bare)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--checkouts", action="store_true")
    args = ap.parse_args()
    ok = checkouts(args) if args.checkouts else steadiness(args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
