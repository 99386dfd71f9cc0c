#!/usr/bin/env python3
"""Build and run the ComDML round benchmark.

    python3 perfbench/run.py --workload cnn-hetero --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds the
repository's library, fleetd and the benchmark binary into .bench_build/
(Release); later runs only rebuild what changed. Build output goes to
stderr, so the last line of stdout is always the benchmark's JSON result.
With --trace 1 the span file lands in .bench_build/traces/.
"""
import argparse
import hashlib
import os
import pathlib
import signal
import subprocess
import sys

WORKLOADS = ("cnn-hetero", "mlp-int8-overlap", "fleetd-2w")
BUILD_DIR = pathlib.Path(".bench_build")
RUN_TIMEOUT_S = 170


def build() -> pathlib.Path:
    here = pathlib.Path(__file__).resolve().parent
    # Configure until a build system exists; afterwards `cmake --build`
    # re-runs the configure step itself whenever a CMakeLists changes.
    if not any((BUILD_DIR / f).exists() for f in ("Makefile", "build.ninja")):
        subprocess.run(
            ["cmake", "-S", str(here), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench"


def source_id() -> str:
    """The git commit when there is one, else a digest of the sources."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             check=True, capture_output=True, text=True)
        root, commit = top.stdout.split()
        if pathlib.Path(root).resolve() == pathlib.Path.cwd().resolve():
            return commit
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        root = pathlib.Path(top)
        files = [root] if root.is_file() else sorted(root.rglob("*"))
        for f in files:
            if f.is_file():
                digest.update(str(f).encode())
                digest.update(f.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--commit", source_id()]
    if a.trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file",
                str(traces / f"{a.workload}-seed{a.seed}.json")]
    # Own process group, so a timeout also takes down any fleetd children.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
