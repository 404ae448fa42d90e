"""Checks of the benchmark itself: generator, oracles and trace coverage.

    python3 -m pytest perfbench/test_trace.py

Each workload's first block is run in-process under the tracer; every
wrapped entry point must record a call on the workload ``COVERED_ON``
names, and per-entry self times must add up to the traced request time.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CLI = worker._import_package(os.path.dirname(HERE))

from filtmult import staircase  # noqa: E402


def _block(workload) -> int:
    return sum(n for _, n in workload.block)


def test_generation_depends_only_on_the_seed():
    for workload in workloads.WORKLOADS.values():
        first = [(r.task, r.spec) for r in workloads.generate(workload, 7)]
        again = [(r.task, r.spec) for r in workloads.generate(workload, 7)]
        other = [(r.task, r.spec) for r in workloads.generate(workload, 8)]
        assert first == again
        assert first != other
        assert len(first) == workloads.mix_size(workload) * workload.mixes_per_pool


def test_oracles_match_the_package():
    rng = random.Random(3)
    for dim, max_exp, k in ((2, 5, 37), (3, 4, 6)):
        for _ in range(10):
            gens = workloads.random_ideal(rng, dim, max_exp)
            ideal = staircase.power(staircase.minimalize(gens, dim), k)
            assert workloads.ideal_power(gens, k) == list(ideal.gens)
            assert workloads.colength(list(ideal.gens)) == staircase.colength(ideal)
    gens = [(0, 3), (1, 1), (4, 0)]  # Newton polygon through (0,3), (1,1), (4,0)
    assert workloads.multiplicity_2d(gens) == 2 * 3.5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trace_covers_every_entry_point(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    pool = workloads.generate(workload, 0)[: _block(workload)]
    worker._write_specs(pool, str(tmp_path / "specs"))
    runner = worker.Runner(CLI, pool)
    tracer = tracing.Tracer()
    originals = {key: value for key, value in vars(staircase).items() if callable(value)}
    tracer.install()
    try:
        for i in range(len(pool)):
            runner.request(i)
    finally:
        tracer.uninstall()
    assert runner.failures == []
    assert tracer.missing == []
    assert {k: v for k, v in vars(staircase).items() if callable(v)} == originals
    uncovered = [fn for fn, where in tracing.COVERED_ON.items() if where == name and not tracer.calls[fn]]
    assert uncovered == []
    span_wall = sum(runner.latencies)
    assert sum(tracer.self_s.values()) == pytest.approx(span_wall, rel=0.02)


def test_every_target_has_a_coverage_workload():
    assert set(tracing.COVERED_ON) == {name for _, _, name in tracing.TARGETS}
    assert set(tracing.COVERED_ON.values()) <= set(workloads.WORKLOADS)


def test_install_patches_every_binding():
    originals = [
        getattr(sys.modules[f"filtmult.{module}"], path)
        for module, path, _ in tracing.TARGETS
        if "." not in path
    ]
    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "filtmult"}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        left = [
            f"{name}.{key}"
            for name, module in modules.items()
            for key, value in vars(module).items()
            if any(value is fn for fn in originals)
        ]
    finally:
        tracer.uninstall()
    assert left == []
    assert getattr(sys.modules["filtmult.multiplicity"], "product") in originals
