"""Benchmark of gelfand pair verification; run from the root of a checkout.

    python3 perfbench/run.py --workload ladder-both --seed 1 --seconds 20 --trace 0

Each run starts fresh worker processes (perfbench/worker.py) with BLAS and
OpenMP threads pinned to 1 and a private cache dir under .perfbench_out/, so
~/.cache/gelfand and $GELFAND_CACHE_DIR are never touched.  With --trace 0
it reports the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it repeat
every metric by name with its unit, plus fail_ratio and a host-speed probe.
A run that cannot measure exits nonzero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
# set-up is measured in 3 to 9 fresh processes per untraced run: cheap
# set-ups are repeated until they have taken SETUP_PROBE_S in all
SETUP_MIN, SETUP_MAX, SETUP_PROBE_S = 3, 9, 3.0
# every run, set-up and worker start-up included, ends within this budget
RUN_BUDGET_S = 165.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def worker_env(root: str, tmp: str) -> dict:
    env = dict(os.environ)
    env.pop("GELFAND_CACHE_DIR", None)
    env["XDG_CACHE_HOME"] = os.path.join(tmp, "xdg")
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, extra: list[str], env: dict, tmp: str, deadline: float) -> tuple[dict, float]:
    """Start one worker, wait for it, and return (its result, its spawn time)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--deadline", repr(deadline), "--tmp", tmp, *extra,
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline + 10 - spawned)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gelfand", "cli.py")):
        return fail("run from the root of a gelfand checkout (src/gelfand/cli.py not found)")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    os.makedirs(os.path.join(root, OUT_DIR, "runs"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, OUT_DIR))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        env = worker_env(root, tmp)
        deadline = start + RUN_BUDGET_S
        results = []
        try:
            if not args.trace:
                probes_start = time.monotonic()
                while len(results) < SETUP_MIN - 1 or (
                    len(results) < SETUP_MAX - 1
                    and time.monotonic() - probes_start < SETUP_PROBE_S
                ):
                    results.append(run_worker(args, ["--setup-only"], env, tmp, deadline))
            spans_out = os.path.join(root, OUT_DIR, "runs", f"{tag}.spans.jsonl")
            extra = ["--spans-out", spans_out] if args.trace else []
            results.append(run_worker(args, extra, env, tmp, deadline))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            return fail(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    main_result = results[-1][0]
    attempted = sum(r["attempted"] for r, _ in results)
    failed = sum(r["failed"] for r, _ in results)
    problems = [p for r, _ in results for p in r["problems"]]
    # the records of every pair must be byte-identical across processes too
    for r, _ in results[:-1]:
        for pair, text in r["records"].items():
            if text != main_result["records"].get(pair, text):
                failed += 1
                problems.append(f"{pair}: record bytes differ between worker processes")

    if args.trace:
        layers = main_result["per_layer"]
        metrics = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if name.endswith("_s"):
                metrics[name] = statistics.median(values)
            elif len(set(values)) == 1:
                metrics[name] = values[0]
            else:
                metrics[name] = values[0]
                failed += 1
                problems.append(f"count {name} differs between traced passes: {values}")
        metrics["trace.overhead_s"] = main_result["traced_wall_s"] - main_result["wall_s"]
    else:
        metrics = {
            "wall_s": main_result["wall_s"],
            "setup_s": statistics.median(r["setup_done"] - spawned for r, spawned in results),
            "peak_rss_mb": main_result["peak_rss_mb"],
        }
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        return fail(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": main_result["passes"],
        "pass_s": main_result["pass_s"],
        "host_probe_s": main_result["host_probe_s"],
        "setup_s_each": [r["setup_done"] - spawned for r, spawned in results],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }
    with open(os.path.join(root, OUT_DIR, "runs", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    probe = ", ".join(f"{1000 * t:.1f}" for t in main_result["host_probe_s"])
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{main_result['passes']} passes, host probe {probe} ms before/after")
    for m in wanted:
        print(f"  {m['name']:<42} {metrics[m['name']]:>14.6f} {m['unit']}")
    print(f"  {'fail_ratio':<42} {failed / attempted:>14.6f} failed/attempted ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
