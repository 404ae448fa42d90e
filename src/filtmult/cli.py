"""Batch front end: parse a problem file, dispatch to the engine, report.

Usage:
    filtmult <task> [--input spec.json] [--seed N] [--budget M]
             [--format json|text] [--output path] [--threshold X]

Exit codes: 0 success, 1 engine error, 2 validation error, 3 property-suite
failure.  With ``--format json`` the output is deterministic byte-for-byte
for a fixed input and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import FiltmultError, SpecValidationError, spec_int, spec_object
from .filtrations import CeilingNormMultiFiltration, Filtration, filtration_from_json
from .multiplicity import (
    ExactStrategy,
    NumericStrategy,
    Strategy,
    fit_quasi_polynomial,
    limit_normalized_colength,
    mixed_multiplicity_table,
    truncation_convergence,
)
from .okounkov import volume_limit_check
from .staircase import MonomialIdeal, colength
from .verifier import (
    STANDARD_WITNESS_POINTS,
    integrality_check,
    integrality_suite,
    minkowski_report,
    minkowski_suite,
    non_polynomial_witness,
    rees_identity_check,
)

TASKS = (
    "colength",
    "multiplicity",
    "mixed",
    "truncate-converge",
    "quasipoly",
    "okounkov",
    "minkowski",
    "rees",
    "integrality",
    "multigraded-demo",
)


def _spec_int(data: dict, key: str, default: int, minimum: int, budget: int | None = None) -> int:
    """The integer field ``key`` of a spec object, held to the type and
    minimum that docs/input_schema.json gives it; a ``--budget`` replaces
    it and is held to the same minimum."""
    value = spec_int(data.get(key, default), key, minimum)
    return value if budget is None else spec_int(budget, "--budget", minimum)


# Accepted and checked for existing specs, like ``hs_budget``; neither selects
# anything, since every exact limit is a covolume.
MULTIPLICITY_METHODS = ("auto", "covolume", "hilbert_samuel")


def _strategy_from_json(data, budget: int | None) -> Strategy:
    if data is None:
        return ExactStrategy()
    kind = spec_object(data, "strategy").get("kind")
    if kind == "exact":
        _spec_int(data, "hs_budget", 60, 4)
        method = data.get("multiplicity_method", "auto")
        if method not in MULTIPLICITY_METHODS:
            raise SpecValidationError(f"unknown multiplicity method {method!r}")
        return ExactStrategy()
    if kind == "numeric":
        return NumericStrategy(
            m_max=_spec_int(data, "m_max", 4096, 2, budget), m0=_spec_int(data, "m0", 1, 1)
        )
    raise SpecValidationError(f"unknown strategy kind {kind!r}")


def _exact_strategy(spec: dict, budget: int | None) -> ExactStrategy:
    """The spec's strategy for an engine that only computes exact values."""
    strategy = _strategy_from_json(spec.get("strategy"), budget)
    if not isinstance(strategy, ExactStrategy):
        raise SpecValidationError("this task computes exact values only; use an exact strategy")
    return strategy


def _family(specs) -> list[Filtration]:
    """The filtrations of a spec list, which must share one ambient dimension."""
    Fs = [filtration_from_json(f) for f in specs]
    if len({F.dim for F in Fs}) > 1:
        raise SpecValidationError("filtrations have mixed ambient dimensions")
    return Fs


def _filtration_list(spec: dict) -> list[Filtration]:
    if "filtrations" not in spec:
        raise SpecValidationError("problem needs a 'filtrations' list")
    return _family(spec["filtrations"])


# ---------------------------------------------------------------------------
# Task handlers: each returns (report dict, passed flag or None)


def _task_colength(spec, args):
    ideal = MonomialIdeal.from_json(spec["ideal"])
    return {"ideal": ideal.to_json(), "colength": colength(ideal)}, None


def _task_multiplicity(spec, args):
    F = filtration_from_json(spec["filtration"])
    strategy = _strategy_from_json(spec.get("strategy"), args.budget)
    est = limit_normalized_colength([F], (1,), strategy)
    mult = math.factorial(F.dim) * est.value
    report = {
        "filtration": F.to_json(),
        "d": F.dim,
        "limit": est.to_json(),
        "multiplicity": str(mult) if est.exact else float(mult),
        "exact": est.exact,
    }
    return report, None


def _task_mixed(spec, args):
    Fs = _filtration_list(spec)
    strategy = _strategy_from_json(spec.get("strategy"), args.budget)
    table = mixed_multiplicity_table(Fs, strategy, seed=args.seed)
    return table.to_json(), None


def _task_truncate_converge(spec, args):
    Fs = _filtration_list(spec)
    report = truncation_convergence(
        Fs,
        [spec_int(a, "schedule entry", 1) for a in spec["schedule"]],
        targets=spec.get("targets"),
        strategy=_exact_strategy(spec, args.budget),
    )
    return report.to_json(), None


def _task_quasipoly(spec, args):
    Fs = _filtration_list(spec)
    # the fit has no strategy to choose; the spec's is only validated
    _exact_strategy(spec, args.budget)
    qp = fit_quasi_polynomial(
        Fs, spec_int(spec["period"], "period", 1), window=_spec_int(spec, "window", 2, 1)
    )
    return qp.to_json(), None


def _task_okounkov(spec, args):
    F = filtration_from_json(spec["filtration"])
    report = volume_limit_check(F, _spec_int(spec, "m_max", 64, 1, args.budget))
    return report.to_json(), None


def _task_minkowski(spec, args):
    if "pair" in spec:
        if not isinstance(spec["pair"], list) or len(spec["pair"]) != 2:
            raise SpecValidationError("'pair' needs a list of exactly two filtrations")
        F1, F2 = _family(spec["pair"])
        strategy = _strategy_from_json(spec.get("strategy"), args.budget)
        report = minkowski_report(F1, F2, strategy, seed=args.seed)
        return report.to_json(), report.passed
    suite_spec = spec_object(spec.get("suite", {}), "suite")
    result = minkowski_suite(
        count_d2=_spec_int(suite_spec, "count_d2", 100, 0),
        count_d3=_spec_int(suite_spec, "count_d3", 25, 0),
        seed=args.seed,
        max_exp_d2=_spec_int(suite_spec, "max_exp_d2", 5, 1),
        max_exp_d3=_spec_int(suite_spec, "max_exp_d3", 4, 1),
    )
    return result.to_json(), result.passed


def _task_rees(spec, args):
    Fs = _filtration_list(spec)
    strategy = _strategy_from_json(spec.get("strategy"), args.budget)
    report = rees_identity_check(Fs, _spec_int(spec, "slot", 1, 1), strategy, seed=args.seed)
    return report.to_json(), report.passed


def _task_integrality(spec, args):
    if "ideal" in spec:
        report = integrality_check(MonomialIdeal.from_json(spec["ideal"]))
        return report.to_json(), report.passed
    suite_spec = spec_object(spec.get("suite", {}), "suite")
    result = integrality_suite(
        count=_spec_int(suite_spec, "count", 20, 1),
        seed=args.seed,
        max_exp=_spec_int(suite_spec, "max_exp", 6, 1),
    )
    return result.to_json(), result.passed


def _task_multigraded_demo(spec, args):
    arity = _spec_int(spec, "arity", 2, 1)
    MF = CeilingNormMultiFiltration(arity, spec.get("weights"))
    points = [tuple(p) for p in spec.get("points", STANDARD_WITNESS_POINTS)]
    threshold = args.threshold if args.threshold is not None else spec.get("threshold", 0.05)
    # NaN and Infinity are not JSON, so the report could not print them
    if type(threshold) not in (int, float) or not abs(threshold) <= sys.float_info.max:
        raise SpecValidationError(f"threshold: finite numbers only, got {threshold!r}")
    # the limit is a closed form, so m_max and --budget are only validated
    _spec_int(spec, "m_max", 4096, 1, args.budget)
    report = non_polynomial_witness(MF, points, degree=MF.dim, threshold=float(threshold))
    return report.to_json(), report.witnessed


_HANDLERS = {
    "colength": _task_colength,
    "multiplicity": _task_multiplicity,
    "mixed": _task_mixed,
    "truncate-converge": _task_truncate_converge,
    "quasipoly": _task_quasipoly,
    "okounkov": _task_okounkov,
    "minkowski": _task_minkowski,
    "rees": _task_rees,
    "integrality": _task_integrality,
    "multigraded-demo": _task_multigraded_demo,
}


# ---------------------------------------------------------------------------
# Rendering


def _render_text(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_render_text(item, indent + 1))
                lines.append(f"{pad}  -")
            if lines[-1].endswith("-"):
                lines.pop()
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        # suite reports stream as JSON lines, one record per instance,
        # followed by a summary record
        report = payload.get("report")
        if isinstance(report, dict) and "instances" in report:
            lines = [
                json.dumps(rec, sort_keys=True, separators=(",", ":"))
                for rec in report["instances"]
            ]
            summary = dict(payload)
            summary["report"] = {
                k: v for k, v in report.items() if k != "instances"
            } | {"count": len(report["instances"]), "summary": True}
            lines.append(json.dumps(summary, sort_keys=True, separators=(",", ":")))
            text = "\n".join(lines)
        else:
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        text = _render_text(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtmult",
        description="Exact multiplicities and mixed multiplicities of filtrations "
        "of monomial ideals.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--input", help="problem JSON file (defaults vary by task)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=None, help="numeric index budget")
    parser.add_argument("--threshold", type=float, default=None, help="witness threshold")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--output", default=None, help="write the report to a file")
    return parser


# parse_args returns a fresh Namespace per call, so one parser serves every call
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    spec: dict = {}
    if args.input:
        try:
            with open(args.input, encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            _emit({"error": {"code": "SpecValidationError", "message": str(exc)}}, args)
            return 2
    elif args.task != "multigraded-demo":
        _emit(
            {"error": {"code": "SpecValidationError", "message": "--input is required"}},
            args,
        )
        return 2
    handler = _HANDLERS[args.task]
    try:
        report, passed = handler(spec_object(spec, "spec"), args)
    except SpecValidationError as exc:
        _emit({"error": {"code": exc.code, "message": str(exc)}}, args)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        _emit({"error": {"code": "SpecValidationError", "message": repr(exc)}}, args)
        return 2
    except FiltmultError as exc:
        _emit({"error": {"code": exc.code, "message": str(exc)}}, args)
        return 1
    payload = {"task": args.task, "seed": args.seed, "report": report}
    if passed is not None:
        payload["pass"] = bool(passed)
    _emit(payload, args)
    return 0 if passed in (None, True) else 3


if __name__ == "__main__":
    sys.exit(main())
