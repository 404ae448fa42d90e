"""filtmult benchmark: seeded CLI workloads in a closed loop.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  One client sends one request at a time; each request calls
``filtmult.cli.main(argv)`` in a fresh worker process started for this run.
Set-up is measured in that worker and in ``SETUP_PROBES`` extra workers that
only set up; ``setup_s`` is their median.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (see ``tracing.py``).  Lines before it describe the run for
people.  The exit code is 0 when every report passed the correctness gate,
1 when one did not, and 2 when the benchmark could not run.

``--record-digests`` re-records ``digests.json``: for each mix of each
workload's pool at ``DEFAULT_SEED``, a SHA-256 over the SHA-256 of each of
its reports.  Reports are meant to
stay byte-identical, so do this only when a change to them is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("FILTMULT_THREADS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(mode: str, workload: str, seed: int, seconds: float, tag: str) -> tuple[dict, float]:
    """Start one worker, wait for it, return its report and its set-up time."""
    workdir = os.path.join(WORKDIR, f"{workload}-{seed}-{os.getpid()}-{tag}")
    argv = [sys.executable, WORKER, mode, ROOT, workload, str(seed), str(seconds), workdir]
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_worker_env(), cwd=ROOT)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker did not finish within {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{stderr.decode()[-2000:]}")
    report = json.loads(stdout.decode().splitlines()[-1])
    return report, report["ready"] - start


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a sample (no interpolation)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def _describe(workload, seed: int) -> None:
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "FILTMULT_THREADS": "unset",
    }
    print(f"workload {workload.name} ({workload.why})")
    print(f"environment {json.dumps(env)}")
    mix = ", ".join(f"{kind} x{n}" for kind, n in workload.mix_counts().items())
    print(f"request mix per {workloads.mix_size(workload)} requests: {mix}; "
          f"pool of {workload.mixes_per_pool} mixes, cycled")


def _gate(report: dict) -> tuple[int, int]:
    failures = report["failures"]
    for line in failures[:20]:
        print(f"FAILED {line}")
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failed requests")
    return len(report["latencies"]), len(failures)


def measure(workload, seed: int, seconds: float) -> tuple[dict, int, int]:
    report, setup = run_worker("timed", workload.name, seed, seconds, "timed")
    setups = [setup] + [
        run_worker("setup", workload.name, seed, seconds, f"probe{i}")[1] for i in range(SETUP_PROBES)
    ]
    attempted, failed = _gate(report)
    lat = report["latencies"]
    p90 = _quantile(lat, 0.9)
    beyond = sum(1 for x in lat if x > p90)
    print(f"requests {attempted} (by kind {json.dumps(Counter(report['kinds']))}); "
          f"{beyond} samples beyond p90; fail_ratio {failed / attempted:.4g}")
    metrics = {
        "throughput_rps": (attempted / sum(lat), "req/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (p90, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (report["maxrss_kb"] / 1024, "MB"),
        "success_ratio": (1 - failed / attempted, "1"),
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:16s} {value:.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, attempted, failed


def measure_traced(workload, seed: int, seconds: float) -> tuple[dict, int, int]:
    report, _ = run_worker("traced", workload.name, seed, seconds, "traced")
    attempted, failed = _gate(report)
    per_layer = report["per_layer"]
    print(f"traced {report['passes']} pass(es) of the first mix; overhead "
          f"{per_layer['trace.overhead']:.3f}x traced/untraced wall; self-time sum "
          f"{report['self_sum_s']:.4f} s vs span wall {per_layer['trace.wall_s']:.4f} s per pass")
    if report["missing"]:
        print(f"entry points not found, reported as 0: {', '.join(report['missing'])}")
    unseen = [fn for fn, where in tracing.COVERED_ON.items()
              if where == workload.name and not report["calls"].get(fn)]
    if unseen:
        print(f"entry points expected on this workload but not called: {', '.join(unseen)}")
    units = dict(tracing.PER_LAYER)
    for name, value in per_layer.items():
        print(f"  {name:55s} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in per_layer.items()}
    return metrics, attempted, failed


def record_digests() -> None:
    recorded = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        report, _ = run_worker("record", name, DEFAULT_SEED, 0, "record")
        if report["failures"]:
            raise BenchError(f"{name}: cannot record digests of failing reports: {report['failures'][:3]}")
        recorded["workloads"][name] = report["digests"]
        print(f"{name}: {len(report['digests'])} digests")
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=0)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "filtmult", "cli.py")):
        print(f"no filtmult sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        workload = workloads.WORKLOADS[args.workload]
        _describe(workload, args.seed)
        run = measure_traced if args.trace else measure
        metrics, attempted, failed = run(workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)  # only when no other run is using it
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
