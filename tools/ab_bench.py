#!/usr/bin/env python3
"""Alternating-pairs A/B of perfbench: a parent revision against the working tree.

    python3 tools/ab_bench.py PARENT_REV --pairs 10 --seconds 30 --seed 11 \\
        mlp-int8-overlap cnn-hetero

Run from the root of a checkout. The parent revision (`git archive`) and the
working tree (every tracked or untracked, not ignored file as it is on disk)
are copied into two directories under --work, and each is built through its
own perfbench/run.py (one short warm-up run per workload). Then, per
workload, N pairs run the two trees back to back, flipping the order every
pair, so slow phases of the host hit both sides alike.

Two host readings bracket every compared run (not the warm-ups). Steal is
read from /proc/stat. A fixed-work probe runs 4 processes of the same
integer loop at once (about 0.25 s on an idle 4-core host) before and
after the run and keeps the slower process's rate: a shared host can cut
every core's throughput several-fold while /proc/stat shows no steal at
all. A pair is flagged when its two sides' steal shares differ by more
than 2 points, or their probe rates by more than 15 % of the faster one.

For every end-to-end metric of BENCHMARK.json the report gives both medians
and quartiles, the number of pairs the change won (strictly better in the
metric's direction), and whether the median difference exceeds the
parent's interquartile range. --json writes every run's record as well.
"""
import argparse
import json
import multiprocessing
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

SIDES = ("parent", "change")
PROBE_PROCS = 4
PROBE_ITERS = 1_500_000  # about 0.25 s of one CPython process on an idle core
STEAL_GAP = 0.02  # flag a pair whose sides' steal shares differ by more
PROBE_GAP = 0.15  # ... or whose probe rates differ by more than this share


def git(*args, **kw):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          **kw).stdout


def export_parent(rev: str, dest: pathlib.Path) -> None:
    with tempfile.TemporaryFile() as tar:
        tar.write(git("archive", "--format=tar", rev))
        tar.seek(0)
        with tarfile.open(fileobj=tar) as t:
            t.extractall(dest)


def export_worktree(dest: pathlib.Path) -> None:
    files = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").split(b"\0")
    for raw in files:
        if not raw:
            continue
        src = pathlib.Path(os.fsdecode(raw))
        if not src.is_file():  # deleted in the working tree
            continue
        out = dest / src
        out.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, out)


def read_steal():
    """(steal, total) jiffies of the host's aggregate cpu line."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    ticks = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user/nice.
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks[:8])


def _probe_worker(barrier, rates) -> None:
    barrier.wait()
    t0 = time.perf_counter()
    x = 0
    for _ in range(PROBE_ITERS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    rates.put(PROBE_ITERS / (time.perf_counter() - t0))


def host_probe() -> float:
    """Loop iterations per second of the slowest of PROBE_PROCS processes
    started together on the same fixed work."""
    ctx = multiprocessing.get_context("fork")
    barrier, rates = ctx.Barrier(PROBE_PROCS), ctx.Queue()
    procs = [ctx.Process(target=_probe_worker, args=(barrier, rates))
             for _ in range(PROBE_PROCS)]
    for proc in procs:
        proc.start()
    got = [rates.get() for _ in procs]
    for proc in procs:
        proc.join()
    return min(got)


def perfbench(tree: pathlib.Path, workload: str, seed: int, seconds: float):
    """One perfbench run in `tree`: its result dict, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    sys.stderr.write(proc.stderr[-2000:])
    return None


def measured_run(tree: pathlib.Path, workload: str, seed: int,
                 seconds: float):
    """perfbench() with the host readings around it: (result, steal share,
    host probe rate: the lower of the readings before and after)."""
    probe = host_probe()
    before = read_steal()
    result = perfbench(tree, workload, seed, seconds)
    after = read_steal()
    probe = min(probe, host_probe())
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    return result, steal, probe


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(v: float) -> str:
    return f"{v:.6g}"


def flagged_pairs(runs):
    """(pair, reason) for every pair whose two sides saw different hosts."""
    out = []
    for p, c in zip(runs["parent"], runs["change"]):
        if p["steal"] is not None and c["steal"] is not None and \
                abs(p["steal"] - c["steal"]) > STEAL_GAP:
            out.append((p["pair"], f"steal {p['steal']:.2%} vs "
                                   f"{c['steal']:.2%}"))
        fast = max(p["probe"], c["probe"])
        if abs(p["probe"] - c["probe"]) > PROBE_GAP * fast:
            out.append((p["pair"], f"probe {p['probe'] / 1e6:.2f} vs "
                                   f"{c['probe'] / 1e6:.2f} M/s"))
    return out


def report(workload, runs, metrics):
    print(f"== {workload}: {len(runs['parent'])} pairs")
    for side in SIDES:
        steal = [r["steal"] for r in runs[side] if r["steal"] is not None]
        probe = [r["probe"] for r in runs[side]]
        failed = sum(1 for r in runs[side] if r["result"] is None or
                     r["result"].get("failed", 0) or
                     not r["result"].get("correct", False))
        share = f"{statistics.median(steal):.2%}" if steal else "n/a"
        print(f"   {side:6s}: median steal {share}, host probe median "
              f"{statistics.median(probe) / 1e6:.2f} M/s (min "
              f"{min(probe) / 1e6:.2f}), failed or incorrect runs {failed}")
    for pair, reason in flagged_pairs(runs):
        print(f"   flagged pair {pair + 1}: {reason} (parent vs change)")
    print(f"   {'metric':22s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'wins':>6s} {'diff>IQR':>8s}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(p["result"]["metrics"][name]["value"],
                  c["result"]["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if p["result"] and c["result"] and
                 name in p["result"].get("metrics", {}) and
                 name in c["result"].get("metrics", {})]
        if not pairs:
            continue
        par = [p for p, _ in pairs]
        chg = [c for _, c in pairs]
        pq, cq = quartiles(par), quartiles(chg)
        wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
        exceeds = abs(cq[1] - pq[1]) > (pq[2] - pq[0])
        rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        print(f"   {name:22s} {'/'.join(map(fmt, pq)):>32s} "
              f"{'/'.join(map(fmt, cq)):>32s} {wins:>3d}/{len(pairs):<2d} "
              f"{'yes' if exceeds else 'no':>8s}  ({rel:+.1%})")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", metavar="PARENT_REV")
    p.add_argument("workloads", nargs="+", metavar="WORKLOAD")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--work", type=pathlib.Path,
                   help="directory for the two trees (default: a new "
                        "temporary directory, removed afterwards)")
    p.add_argument("--json", type=pathlib.Path,
                   help="write every run's record here")
    a = p.parse_args()
    if a.pairs < 1 or a.seconds <= 0 or a.seed < 0:
        p.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    bench = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    for w in a.workloads:
        if w not in names:
            p.error(f"unknown workload {w!r} (BENCHMARK.json has {names})")

    work = a.work or pathlib.Path(tempfile.mkdtemp(prefix="ab_bench."))
    trees = {side: work / side for side in SIDES}
    for tree in trees.values():
        if tree.exists():
            shutil.rmtree(tree)
        tree.mkdir(parents=True)
    export_parent(a.parent, trees["parent"])
    export_worktree(trees["change"])

    records = []
    try:
        for side in SIDES:
            for w in a.workloads:
                print(f"building and warming up {side} for {w}",
                      file=sys.stderr)
                if perfbench(trees[side], w, a.seed, 1.0) is None:
                    print(f"ab_bench: {side} failed to build or run {w}",
                          file=sys.stderr)
                    return 1
        for w in a.workloads:
            runs = {side: [] for side in SIDES}
            for i in range(a.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    result, steal, probe = measured_run(trees[side], w,
                                                        a.seed, a.seconds)
                    rec = {"workload": w, "pair": i, "side": side,
                           "steal": steal, "probe": probe, "result": result}
                    runs[side].append(rec)
                    records.append(rec)
                print(f"{w}: pair {i + 1}/{a.pairs} done", file=sys.stderr)
            report(w, runs, bench["end_to_end"])
    finally:
        if a.json:
            a.json.write_text(json.dumps(records, indent=1) + "\n")
        if a.work is None:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
