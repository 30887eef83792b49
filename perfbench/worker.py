"""One benchmark worker process: set up, run timed passes, gate every result.

run.py starts this with PYTHONPATH pointing at the checkout's src/ and BLAS
and OpenMP threads pinned to 1.  It drives the user-facing entry point
``gelfand.cli.main(["pair-check", ...])`` in process, one pair after another
(a closed loop with one client), and prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import workloads
from tracer import Tracer, per_layer, span_lines

MIN_PASSES = 2
# trace mode runs passes untraced, traced, traced, untraced, ...: at least
# one untraced pass for trace.overhead_s and two traced ones to compare counts
TRACE_MIN_PASSES = 3


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic, never a metric."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Runs pair checks through the CLI entry point and gates their records."""

    def __init__(self, cli, workload: str, seed: int):
        spec = workloads.WORKLOADS[workload]
        self.cli = cli
        self.method = spec["method"]
        self.seed = seed
        self.expected = workloads.load_expected()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: dict[str, str] = {}

    def check(self, pair: str, cache_dir: str) -> float:
        """One pair-check; returns its wall time and counts any miss as failed."""
        argv = [
            "pair-check", pair, "--method", self.method, "--format", "machine",
            "--seed", str(self.seed), "--cache-dir", cache_dir,
        ]
        out = io.StringIO()
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "raised " + traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        text = out.getvalue()
        misses = workloads.gate(self.expected, self.method, pair, rc, text)
        first = self.records.setdefault(pair, text)
        if not misses and text != first:
            misses = ["record bytes differ from this run's first record"]
        if misses:
            self.failed += 1
            stderr = err.getvalue().strip()
            self.problems.append(f"{pair}: " + "; ".join(misses) + (f" [{stderr}]" if stderr else ""))
        return elapsed


def per_pair_wall(times: dict[str, list[float]]) -> float:
    """Time to a verdict for every pair: the sum of each pair's median time."""
    return sum(statistics.median(ts) for ts in times.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--deadline", type=float, required=True, help="time.monotonic() to stop by")
    parser.add_argument("--tmp", required=True, help="directory for cache dirs")
    parser.add_argument("--spans-out", help="JSON-lines file for the spans of traced passes")
    args = parser.parse_args(argv)

    import gelfand.cli as cli

    spec = workloads.WORKLOADS[args.workload]
    runner = Runner(cli, args.workload, args.seed)
    order = list(spec["pairs"])
    random.Random(args.seed).shuffle(order)
    filled_dir = None
    if spec["cache"] == "filled":
        filled_dir = tempfile.mkdtemp(prefix="filled-", dir=args.tmp)
        for pair in order:
            runner.check(pair, filled_dir)
    setup_done = time.monotonic()
    result = {"setup_done": setup_done}

    if not args.setup_only:
        result["host_probe_s"] = [host_probe()]
        untraced: dict[str, list[float]] = {pair: [] for pair in order}
        traced: dict[str, list[float]] = {pair: [] for pair in order}
        layers: list[dict] = []
        span_records: list[dict] = []
        min_passes = TRACE_MIN_PASSES if args.trace else MIN_PASSES
        tracer = Tracer() if args.trace else None
        pass_s: list[float] = []
        start = time.monotonic()
        passes = 0
        while True:
            is_traced = bool(args.trace) and passes % 3 != 0
            cache_dir = filled_dir or tempfile.mkdtemp(prefix="pass-", dir=args.tmp)
            times = traced if is_traced else untraced
            with tracer if is_traced else contextlib.nullcontext():
                for pair in order:
                    if is_traced:
                        tracer.pair = f"{passes}/{pair}"
                    times[pair].append(runner.check(pair, cache_dir))
            pass_s.append(sum(times[pair][-1] for pair in order))
            if filled_dir is None:
                shutil.rmtree(cache_dir)
            if is_traced:
                spans, counts = tracer.take()
                layers.append(per_layer(spans, counts))
                span_records.extend(span_lines(spans, len(span_records)))
            passes += 1
            now = time.monotonic()
            per_pass = (now - start) / passes
            if now + per_pass > args.deadline:
                break
            if passes >= min_passes and now - start + per_pass > args.seconds:
                break
        if passes < min_passes:
            print(f"deadline allowed only {passes} pass(es), need {min_passes}", file=sys.stderr)
            return 1
        result["host_probe_s"].append(host_probe())
        result["passes"] = passes
        result["pass_s"] = pass_s
        result["wall_s"] = per_pair_wall(untraced)
        if args.trace:
            result["traced_wall_s"] = per_pair_wall(traced)
            result["per_layer"] = layers
            if args.spans_out:
                with open(args.spans_out, "w", encoding="utf-8") as fh:
                    for line in span_records:
                        fh.write(json.dumps(line) + "\n")

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["problems"] = runner.problems
    result["records"] = runner.records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
