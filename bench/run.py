"""parityflow benchmark: one workload per run, one JSON result line on stdout.

    python3 bench/run.py --workload {sweep7,branches,cli} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. With
--trace 0 the result holds the end-to-end metrics. With --trace 1 the run
measures the workload once without and once with tracing and reports the
per-layer metrics, the untraced engine and CLI figures, and the tracing
overhead; the spans go to .bench_out/spans-<workload>.npz.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5  # this process plus four fresh interpreters
PROBE_TIMEOUT_S = 60


def _import_program(workload: str) -> float:
    """Import parityflow from ./src and return the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "parityflow", "__init__.py")):
        raise SystemExit(f"error: no parityflow sources under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import parityflow

    if workload == "cli":
        import parityflow.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(parityflow.__file__))) != SRC:
        raise SystemExit(f"error: parityflow imported from {parityflow.__file__}, not from {SRC}")
    return elapsed


def _set_up(workload: str, seed: int):
    """Import, make the harness inputs, then time the program calls that build on them."""
    import_s = _import_program(workload)
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    raw = spec.generate(seed, ROOT)
    start = time.perf_counter()
    inputs = spec.build(raw)
    return spec, inputs, import_s + time.perf_counter() - start


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _measure(spec, inputs, seconds: float, tracer=None):
    """Whole rounds until `seconds` of wall time have passed, at least one."""
    from workloads import Stats

    stats = Stats()
    start = time.perf_counter()
    while True:
        spec.run_round(inputs, stats, tracer)
        stats.rounds += 1
        if time.perf_counter() - start >= seconds:
            return stats


def _quantile_ms(values: list[float], q: int) -> float:
    """q-th percentile in ms (statistics.quantiles, inclusive), 0 without samples."""
    if len(values) < 2:
        return 1000.0 * values[0] if values else 0.0
    return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _untraced_layer_metrics(stats) -> dict[str, tuple[float, str]]:
    """Figures from the untraced pass that split the end-to-end rate by engine and command."""
    from workloads import CLI_KINDS

    out = {
        "branches.parity_runs_per_s": (stats.rate(["parity"]), "1/s"),
        "branches.mbqc_runs_per_s": (stats.rate(["mbqc"]), "1/s"),
    }
    all_cli = stats.all_latencies(CLI_KINDS)
    out["cli.ms_p50"] = (_quantile_ms(all_cli, 50), "ms")
    out["cli.ms_p90"] = (_quantile_ms(all_cli, 90), "ms")
    for kind in CLI_KINDS:
        out[f"cli.{kind}.ms_p50"] = (_quantile_ms(stats.latencies.get(kind, []), 50), "ms")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep7", "branches", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    spec, inputs, setup_s = _set_up(args.workload, args.seed)
    if args.probe_setup:
        getattr(spec, "cleanup", lambda w: None)(inputs)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        samples = [setup_s] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        problems = spec.check_setup(inputs)
        stats = _measure(spec, inputs, args.seconds)
        ops_per_s = stats.rate()
        print(
            f"{args.workload}: {stats.rounds} round(s), {stats.attempted} operations "
            f"({stats.failed} failed), {ops_per_s:.6g} operations/s",
            file=sys.stderr,
        )
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = _measure(spec, inputs, args.seconds, tracer)
            finally:
                tracer.uninstall()
            os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
            tracer.save(os.path.join(ROOT, ".bench_out", f"spans-{args.workload}.npz"))
            traced_rate = traced.rate()
            metrics = tracer.metrics()
            metrics.update(_untraced_layer_metrics(stats))
            metrics["trace.overhead_pct"] = (100.0 * (ops_per_s / traced_rate - 1.0), "%")
            problems += traced.problems
            attempted, failed = stats.attempted + traced.attempted, stats.failed + traced.failed
        else:
            metrics = {
                "setup_s": (statistics.median(samples), "s"),
                "peak_rss_mb": (stats.peak_rss_mb, "MB"),
                "ops_per_s": (ops_per_s, "1/s"),
            }
            attempted, failed = stats.attempted, stats.failed
        problems += stats.problems
        if stats.problem_count > len(stats.problems):
            problems.append(f"... {stats.problem_count - len(stats.problems)} more output problems")
        problems += spec.selftest(inputs)
    finally:
        getattr(spec, "cleanup", lambda w: None)(inputs)
    for message in problems:
        print(f"problem: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
