#!/usr/bin/env python3
"""Harness smoke test: the shortest run of every workload in both modes.

    python3 perfbench/smoke_test.py

Run from the root of a checkout. For each workload it runs the benchmark
with --trace 0 and --trace 1 and asserts that the run exits 0, that the
last stdout line has exactly the result keys, that every metric
BENCHMARK.json names for that mode is emitted with its unit and a finite
value (end-to-end values also nonzero), and that traced runs write a
Chrome trace-event span file. Takes about two minutes.
"""
import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()


def check_run(workload: str, trace: int, expected: dict) -> list:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}\n{out.stderr[-2000:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{where}: missing {sorted(set(expected) - set(metrics))}"
                      f", unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{where}: {name} unit {m.get('unit')} != {unit}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{where}: {name} value {v!r}")
        elif trace == 0 and v == 0:
            errors.append(f"{where}: end-to-end {name} is 0")
    if trace == 1:
        span_file = ROOT / ".bench_build" / "traces" / f"{workload}-seed7.json"
        events = json.loads(span_file.read_text())["traceEvents"]
        names = {e["name"].rsplit(".", 1)[-1] for e in events}
        want = {"round", "setup"} | (
            set() if workload == "fleetd-2w" else {"fwd", "bwd"})
        if not want <= names:
            errors.append(f"{where}: span file lacks {sorted(want - names)}")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for w in bench["workloads"]:
        for trace, expected in modes.items():
            errs = check_run(w["name"], trace, expected)
            print(f"{w['name']} --trace {trace}: {'ok' if not errs else 'FAIL'}")
            errors += errs
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
