#!/usr/bin/env python3
"""Build and run one dsmsort benchmark run (perfbench).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout. The first run configures and builds the
library and the benchmark from source under $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check the build. The benchmark's stdout is
passed through; its last line is the result object, checked here against
BENCHMARK.json: with --trace 0 it must carry exactly the end-to-end metrics,
with --trace 1 exactly the per-layer metrics, each with its declared unit.

Exit status: 0 on a correct run, 1 when the program's outputs failed a
correctness check (the result line says correct=false), 2 on a usage,
build or benchmark error (no result line).
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_result(result, spec, trace):
    """Problems with a result object (empty list when it meets the spec)."""
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result must have exactly correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            problems.append(f"{name}: unit must be {unit!r}, got {m!r}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            problems.append(f"{name}: value {m['value']!r} is not a number")
    return problems


def source_revision():
    """Git commit when the checkout is a repository, else a digest of the
    sources the benchmark builds from."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def build(build_root):
    """Configure (once) and build the benchmark; returns the binary path."""
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        # A configure that failed leaves a cache but no Makefile; redo it.
        if not (build_dir / "Makefile").exists():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "dsmbench", "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise RuntimeError("build step failed: " + " ".join(cmd))
    return build_dir / "dsmbench"


def run_bench(binary, argv, work_dir):
    """Run the benchmark in its own process group; kill the whole group
    (forked cluster workers included) if it overruns, and anything of it
    still left once it has exited."""
    env = dict(os.environ, PERFBENCH_REVISION=source_revision())
    proc = subprocess.Popen([str(binary), *argv, "--work-dir", str(work_dir)],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"benchmark overran {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (the benchmark's own tests)")
    args = ap.parse_args()
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise RuntimeError(f"unknown workload {args.workload!r}; "
                               f"expected one of {names}")
        if args.seed < 0 or args.seconds < 1:
            raise RuntimeError("--seed must be >= 0 and --seconds >= 1")
        build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        binary = build(build_root)
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        t0 = time.monotonic()
        code, out = run_bench(binary, argv, build_root / "work")
        lines = out.rstrip("\n").split("\n")
        if code not in (0, 1):
            sys.stdout.write(out)
            raise RuntimeError(f"benchmark exited with status {code}")
        result = json.loads(lines[-1])
        problems = check_result(result, spec, args.trace == 1)
        if problems:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            raise RuntimeError("result does not meet BENCHMARK.json: " +
                               "; ".join(problems))
        if (code == 0) != result["correct"]:
            raise RuntimeError("exit status disagrees with the result")
        print(f"# run took {time.monotonic() - t0:.1f} s", file=sys.stderr)
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.flush()
        return code
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
