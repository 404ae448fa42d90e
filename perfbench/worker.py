"""One benchmark worker process: set up, run a workload, report as JSON.

Started by ``run.py``, once per measurement, as
``python3 perfbench/worker.py <mode> <root> <workload> <seed> <seconds> <workdir>``.
Set-up imports ``filtmult`` from ``<root>/src``, generates the request pool
and writes each spec once to its own file under ``workdir``.  Then:

* ``setup``  - prints the moment set-up ended and exits;
* ``timed``  - closed loop, one request at a time, cycling through the pool
  for ``seconds`` (and at least ``MIN_REQUESTS`` requests);
* ``traced`` - untraced and traced passes over the first mix, alternating,
  until ``seconds`` are spent (at least one of each);
* ``record`` - one pass over the whole pool, printing the digest of each mix.

Each request calls ``filtmult.cli.main(argv)`` in-process with stdout
captured in memory; ``--output`` is never used.  Reports are checked right
after their request, outside the timed span: exit code, ``pass`` flag, the
benchmark's own oracles, and that a request cycled again gives the same
bytes.  At the recorded seed, the SHA-256 of each completed mix of reports
must match ``digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_REQUESTS = 100
REQUEST_LIMIT_S = 10.0
MULTIPLICITY_RTOL = 0.25  # numeric estimates at the workloads' m_max


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from filtmult import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"filtmult was imported from {cli.__file__}, not from {src}")
    return cli


def _write_specs(pool, workdir: str) -> None:
    os.makedirs(workdir)
    for i, req in enumerate(pool):
        req.path = os.path.join(workdir, f"{i:05d}.json")
        with open(req.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(req.spec))


def check(req, code, text: str) -> str | None:
    """None when the report meets the request's expectations, else why not."""
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(text.splitlines()[-1])
    except (ValueError, IndexError):
        return "report is not JSON"
    if payload.get("task") != req.task or "report" not in payload:
        return "report lacks task or body"
    if payload.get("pass") is False:
        return "pass is false"
    report = payload["report"]
    if req.colength_of is not None:
        want = workloads.colength(req.colength_of)
        if report.get("colength") != want:
            return f"colength {report.get('colength')} != {want}"
    if req.multiplicity_of is not None:
        got = float(report["multiplicity"])
        want = float(workloads.multiplicity_2d(req.multiplicity_of))
        if abs(got - want) > MULTIPLICITY_RTOL * want:
            return f"multiplicity {got} is not within {MULTIPLICITY_RTOL:.0%} of {want}"
    return None


def mix_digest(digests: list[bytes]) -> str:
    """SHA-256 over the SHA-256 of each report of one mix, in order."""
    return hashlib.sha256(b"".join(digests)).hexdigest()


class Runner:
    def __init__(self, cli, pool):
        self.cli = cli
        self.pool = pool
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.seen: dict[int, bytes] = {}  # pool index -> SHA-256 of its first report

    def request(self, index: int) -> None:
        req = self.pool[index]
        argv = [req.task, "--input", req.path]
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except Exception as exc:  # an engine crash is a failed request
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        text = buf.getvalue()
        digest = hashlib.sha256(text.encode()).digest()
        if error is None and index in self.seen:
            if self.seen[index] != digest:
                error = "report differs from the one this request gave earlier in the run"
        elif error is None:
            error = check(req, code, text)
            self.seen[index] = digest
        if error is None and latency > REQUEST_LIMIT_S:
            error = f"took {latency:.1f} s, limit {REQUEST_LIMIT_S} s"
        self.latencies.append(latency)
        self.kinds.append(req.kind)
        if error is not None:
            self.failures.append(f"#{index} {req.kind}: {error}")

    def mix_digests(self, size: int) -> list[str]:
        """Digests of the mixes whose every request has run, in pool order."""
        out = []
        for first in range(0, len(self.pool), size):
            indices = range(first, first + size)
            if not all(i in self.seen for i in indices):
                break
            out.append(mix_digest([self.seen[i] for i in indices]))
        return out

    def check_digests(self, size: int, expected: list[str]) -> None:
        for k, (got, want) in enumerate(zip(self.mix_digests(size), expected)):
            if got != want:
                self.failures.append(f"mix {k}: reports differ from the recorded digest")


def main(argv: list[str]) -> int:
    mode, root, workload_name, seed, seconds, workdir = argv
    seed, seconds = int(seed), float(seconds)
    cli = _import_package(root)
    workload = workloads.WORKLOADS[workload_name]
    pool = workloads.generate(workload, seed)
    _write_specs(pool, workdir)
    ready = time.monotonic()
    out: dict = {"ready": ready}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    runner = Runner(cli, pool)
    size = workloads.mix_size(workload)
    if mode == "record":
        for i in range(len(pool)):
            runner.request(i)
        out["digests"] = runner.mix_digests(size)
    elif mode == "timed":
        i = 0
        while time.monotonic() - ready < seconds or i < MIN_REQUESTS:
            runner.request(i % len(pool))
            i += 1
    elif mode == "traced":
        import tracing

        mix = range(size)
        tracer = tracing.Tracer()
        walls = {False: 0.0, True: 0.0}
        span_wall, passes = 0.0, 0
        # untraced and traced passes alternate, so drift hits both alike
        while passes == 0 or time.monotonic() - ready < seconds:
            for traced in (False, True):
                first = len(runner.latencies)
                if traced:
                    tracer.install()
                start = time.perf_counter()
                try:
                    for i in mix:
                        runner.request(i)
                finally:
                    tracer.uninstall()
                walls[traced] += time.perf_counter() - start
                if traced:
                    span_wall += sum(runner.latencies[first:])
            passes += 1
        out["per_layer"] = tracer.metrics(passes, span_wall, walls[True] / walls[False])
        out["passes"] = passes
        out["self_sum_s"] = sum(tracer.self_s.values()) / passes
        out["missing"] = tracer.missing
        out["calls"] = tracer.calls
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if mode != "record":
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            recorded = json.load(fh)
        if seed == recorded["seed"]:
            runner.check_digests(size, recorded["workloads"][workload_name])

    out["latencies"] = runner.latencies
    out["kinds"] = runner.kinds
    out["failures"] = runner.failures
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
