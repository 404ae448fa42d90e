"""Per-layer attribution by wrapping the package's public entry points.

``Tracer.install()`` replaces each target function with a wrapper that
records a span: calls, and self time (span duration minus the time covered
by nested spans).  Modules bind names with ``from .staircase import
product`` and the like, so every binding of the original object across the
``filtmult`` modules is patched, not only the defining module's attribute.
Methods are patched on their class.  Spans are aggregated per name in
memory and read out when the run ends; nothing is written while tracing.

Per-element helpers such as ``staircase.dominates`` are deliberately not
wrapped: they run millions of times per request mix.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path, metric prefix); the prefix names the layer and
# the entry point as the benchmark reports them
TARGETS = (
    ("staircase", "MonomialIdeal.__post_init__", "staircase.MonomialIdeal"),
    ("staircase", "product", "staircase.product"),
    ("staircase", "minimalize", "staircase.minimalize"),
    ("staircase", "colength", "staircase.colength"),
    ("staircase", "power", "staircase.power"),
    ("staircase", "integral_closure", "staircase.integral_closure"),
    ("geometry", "covolume_from_gens", "geometry.covolume_from_gens"),
    ("geometry", "newton_inequalities", "geometry.newton_inequalities"),
    ("geometry", "polytope_volume_hrep", "geometry.polytope_volume_hrep"),
    ("geometry", "hull_volume", "geometry.hull_volume"),
    ("quadratic", "QuadraticIrrational.compare_fraction", "quadratic.compare_fraction"),
    ("quadratic", "QuadraticIrrational.ceil_times", "quadratic.ceil_times"),
    ("filtrations", "Filtration.ideal_at", "filtrations.ideal_at"),
    ("filtrations", "detect_noetherian_scale", "filtrations.detect_noetherian_scale"),
    ("filtrations", "filtration_from_json", "filtrations.filtration_from_json"),
    ("multiplicity", "limit_normalized_colength", "multiplicity.limit_normalized_colength"),
    ("multiplicity", "mixed_multiplicity_table", "multiplicity.mixed_multiplicity_table"),
    ("multiplicity", "sample_points", "multiplicity.sample_points"),
    ("multiplicity", "hilbert_samuel_multiplicity", "multiplicity.hilbert_samuel_multiplicity"),
    ("multiplicity", "truncation_convergence", "multiplicity.truncation_convergence"),
    ("multiplicity", "fit_quasi_polynomial", "multiplicity.fit_quasi_polynomial"),
    ("okounkov", "body_volume", "okounkov.body_volume"),
    ("okounkov", "containment_exponent", "okounkov.containment_exponent"),
    ("verifier", "minkowski_report", "verifier.minkowski_report"),
    ("verifier", "root_sum_compare", "verifier.root_sum_compare"),
    ("verifier", "integrality_check", "verifier.integrality_check"),
    ("verifier", "rees_identity_check", "verifier.rees_identity_check"),
    ("linalg", "invert", "linalg.invert"),
    ("linalg", "solve", "linalg.solve"),
    ("cli", "main", "cli.main"),
)

LAYERS = tuple(dict.fromkeys(module for module, _, _ in TARGETS))

# Which workload each wrapped entry point must be seen on (the coverage
# check); the traced run of that workload records at least one call.
COVERED_ON = {
    "staircase.MonomialIdeal": "numeric-2d",
    "staircase.product": "numeric-2d",
    "staircase.minimalize": "numeric-2d",
    "staircase.colength": "numeric-2d",
    "staircase.power": "irrational-3d",
    "staircase.integral_closure": "exact-verify",
    "geometry.covolume_from_gens": "exact-verify",
    "geometry.newton_inequalities": "exact-verify",
    "geometry.polytope_volume_hrep": "exact-verify",
    "geometry.hull_volume": "irrational-3d",
    "quadratic.compare_fraction": "irrational-3d",
    "quadratic.ceil_times": "irrational-3d",
    "filtrations.ideal_at": "numeric-2d",
    "filtrations.detect_noetherian_scale": "irrational-3d",
    "filtrations.filtration_from_json": "numeric-2d",
    "multiplicity.limit_normalized_colength": "numeric-2d",
    "multiplicity.mixed_multiplicity_table": "exact-verify",
    "multiplicity.sample_points": "numeric-2d",
    "multiplicity.hilbert_samuel_multiplicity": "irrational-3d",
    "multiplicity.truncation_convergence": "irrational-3d",
    "multiplicity.fit_quasi_polynomial": "irrational-3d",
    "okounkov.body_volume": "irrational-3d",
    "okounkov.containment_exponent": "irrational-3d",
    "verifier.minkowski_report": "exact-verify",
    "verifier.root_sum_compare": "exact-verify",
    "verifier.integrality_check": "exact-verify",
    "verifier.rees_identity_check": "exact-verify",
    "linalg.invert": "exact-verify",
    "linalg.solve": "irrational-3d",
    "cli.main": "exact-verify",
}

# Per-layer metrics the traced run reports, in order: (name, unit).
PER_LAYER = (
    ("staircase.MonomialIdeal.calls", "count"),
    ("staircase.MonomialIdeal.self_s", "s"),
    ("staircase.product.calls", "count"),
    ("staircase.product.self_s", "s"),
    ("staircase.product.candidates", "count"),
    ("staircase.product.gens_out", "count"),
    ("staircase.product.yield", "1"),
    ("staircase.minimalize.self_s", "s"),
    ("staircase.colength.calls", "count"),
    ("staircase.colength.self_s", "s"),
    ("staircase.power.self_s", "s"),
    ("staircase.integral_closure.self_s", "s"),
    ("geometry.covolume_from_gens.calls", "count"),
    ("geometry.covolume_from_gens.self_s", "s"),
    ("geometry.covolume_from_gens.points_in", "count"),
    ("geometry.newton_inequalities.calls", "count"),
    ("geometry.newton_inequalities.self_s", "s"),
    ("geometry.newton_inequalities.ineqs_out", "count"),
    ("geometry.polytope_volume_hrep.self_s", "s"),
    ("geometry.hull_volume.self_s", "s"),
    ("quadratic.compare_fraction.calls", "count"),
    ("quadratic.compare_fraction.self_s", "s"),
    ("quadratic.ceil_times.calls", "count"),
    ("quadratic.ceil_times.self_s", "s"),
    ("filtrations.ideal_at.calls", "count"),
    ("filtrations.ideal_at.self_s", "s"),
    ("filtrations.ideal_at.hit_ratio", "1"),
    ("filtrations.detect_noetherian_scale.self_s", "s"),
    ("filtrations.filtration_from_json.self_s", "s"),
    ("multiplicity.limit_normalized_colength.calls", "count"),
    ("multiplicity.limit_normalized_colength.self_s", "s"),
    ("multiplicity.mixed_multiplicity_table.calls", "count"),
    ("multiplicity.mixed_multiplicity_table.self_s", "s"),
    ("multiplicity.sample_points.self_s", "s"),
    ("multiplicity.hilbert_samuel_multiplicity.calls", "count"),
    ("multiplicity.hilbert_samuel_multiplicity.self_s", "s"),
    ("multiplicity.hilbert_samuel_multiplicity.colength_calls", "count"),
    ("multiplicity.truncation_convergence.self_s", "s"),
    ("multiplicity.fit_quasi_polynomial.self_s", "s"),
    ("okounkov.body_volume.self_s", "s"),
    ("okounkov.containment_exponent.self_s", "s"),
    ("verifier.minkowski_report.calls", "count"),
    ("verifier.minkowski_report.self_s", "s"),
    ("verifier.root_sum_compare.calls", "count"),
    ("verifier.root_sum_compare.self_s", "s"),
    ("verifier.integrality_check.self_s", "s"),
    ("verifier.rees_identity_check.self_s", "s"),
    ("linalg.invert.self_s", "s"),
    ("linalg.solve.self_s", "s"),
    ("cli.main.self_s", "s"),
) + tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.wall_s", "s"),
    ("trace.overhead", "1"),
)


class Tracer:
    """Span aggregation for the wrapped entry points of one process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []  # child time covered, per open span
        self._hs_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _after(self, name: str):
        """Work counts recorded from a call's arguments and result."""
        if name == "staircase.product":
            def after(args, result):
                self._count("staircase.product.candidates", len(args[0].gens) * len(args[1].gens))
                self._count("staircase.product.gens_out", len(result.gens))
            return after
        if name == "staircase.colength":
            def after(args, result):
                if self._hs_depth:
                    self._count("multiplicity.hilbert_samuel_multiplicity.colength_calls", 1)
            return after
        if name == "geometry.covolume_from_gens":
            return lambda args, result: self._count(f"{name}.points_in", len(args[0]))
        if name == "geometry.newton_inequalities":
            return lambda args, result: self._count(f"{name}.ineqs_out", len(result))
        return None

    def _wrap(self, name: str, fn):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter
        after = self._after(name)
        is_hs = name == "multiplicity.hilbert_samuel_multiplicity"
        is_ideal_at = name == "filtrations.ideal_at"

        def wrapper(*args, **kwargs):
            if is_hs:
                self._hs_depth += 1
            elif is_ideal_at and args[1] != 0 and args[1] in getattr(args[0], "_cache", ()):
                self._count("filtrations.ideal_at.hits", 1)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                covered = stack.pop()
                calls[name] += 1
                self_s[name] += duration - covered
                if stack:
                    stack[-1] += duration
                if is_hs:
                    self._hs_depth -= 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        self.missing = []
        modules = [m for n, m in sys.modules.items() if n == "filtmult" or n.startswith("filtmult.")]
        for module_name, path, name in TARGETS:
            owner = sys.modules.get(f"filtmult.{module_name}")
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owners:  # a method: patch the class
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- read-out ------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def metrics(self, passes: int, wall_s: float, overhead: float) -> dict[str, float]:
        """Per-pass values of every PER_LAYER metric."""
        raw: dict[str, float] = {}
        for name in self.calls:
            raw[f"{name}.calls"] = self.calls[name]
            raw[f"{name}.self_s"] = self.self_s[name]
        raw.update(self.counts)
        for layer, seconds in self.layer_self_s().items():
            raw[f"layer.{layer}.self_s"] = seconds
        out = {metric: raw.get(metric, 0) / passes for metric, _ in PER_LAYER}
        candidates = raw.get("staircase.product.candidates", 0)
        out["staircase.product.yield"] = raw.get("staircase.product.gens_out", 0) / candidates if candidates else 0.0
        ideal_calls = raw.get("filtrations.ideal_at.calls", 0)
        out["filtrations.ideal_at.hit_ratio"] = raw.get("filtrations.ideal_at.hits", 0) / ideal_calls if ideal_calls else 0.0
        out["trace.wall_s"] = wall_s / passes
        out["trace.overhead"] = overhead
        return out
