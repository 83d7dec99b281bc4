#!/usr/bin/env python3
"""Smoke test of the dsmsort benchmark: every workload at tiny sizes.

    python3 perfbench/smoke_test.py                   # builds via run.py
    python3 perfbench/smoke_test.py --bench PATH      # a built dsmbench

For each workload in BENCHMARK.json it runs an untraced and a traced run and
checks that the run exits 0 with correct=true and no failed job, that every
metric prints with its declared name and unit, that no end-to-end metric
reads 0, and that the traced run reports the same deterministic figures
(virtual_ms_mean, plan_hit_rate, pred_rel_err) as the untraced one.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the launcher's result check)

DETERMINISTIC = ("virtual_ms_mean", "plan_hit_rate", "pred_rel_err")


def one_run(args, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    if args.bench:
        cmd = [args.bench, *argv, "--work-dir", str(run.ROOT / ".bench_build" /
                                                    "work")]
    else:
        cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
               *argv]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} trace {trace}: exit "
                             f"{done.returncode}\n{done.stdout}\n{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", help="path of a built dsmbench binary")
    args = ap.parse_args()
    spec = run.load_spec()
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        infos = {}
        for trace in (0, 1):
            try:
                info, result = one_run(args, name, trace)
            except (AssertionError, ValueError) as e:
                failures.append(str(e))
                continue
            problems = run.check_result(result, spec, trace == 1)
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"correct={result.get('correct')} failed="
                                f"{result.get('failed')} errors="
                                f"{info.get('errors')}")
            if trace == 0:
                for m, v in result["metrics"].items():
                    if v["value"] == 0:
                        problems.append(f"end-to-end metric {m} reads 0")
            infos[trace] = info["info"]
            for p in problems:
                failures.append(f"{name} trace {trace}: {p}")
        if len(infos) == 2:
            for key in DETERMINISTIC:
                if infos[0].get(key) != infos[1].get(key):
                    failures.append(f"{name}: {key} differs between the "
                                    f"untraced ({infos[0].get(key)}) and "
                                    f"traced ({infos[1].get(key)}) runs")
        print(f"{name}: {'ok' if not any(f.startswith(name) for f in failures) else 'FAILED'}")
    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
