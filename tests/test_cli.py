import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from filtmult import cli
from filtmult.cli import main
from filtmult.errors import SpecValidationError
from filtmult.geometry import covolume_from_gens
from filtmult.staircase import minimalize, power

DOCS = Path(__file__).resolve().parents[1] / "docs"
SRC = Path(__file__).resolve().parents[1] / "src"
INPUT_SCHEMA = json.loads((DOCS / "input_schema.json").read_text())
REPORT_SCHEMA = json.loads((DOCS / "report_schema.json").read_text())


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    jsonschema.validate(payload, INPUT_SCHEMA)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def check_report(out: str) -> dict:
    payload = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(payload, REPORT_SCHEMA)
    return payload


BHATTACHARYA = {
    "filtrations": [
        {"kind": "power", "ideal": {"dim": 2, "gens": [[2, 0], [0, 1]]}},
        {"kind": "power", "ideal": {"dim": 2, "gens": [[1, 0], [0, 3]]}},
    ]
}


def _power(gens):
    return {"kind": "power", "ideal": {"dim": len(gens[0]), "gens": gens}}


def test_colength_task(tmp_path, capsys):
    spec = {"ideal": {"dim": 2, "gens": [[3, 0], [1, 1], [0, 4]]}}
    code, out = run_cli(capsys, ["colength", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    payload = check_report(out)
    assert payload["report"]["colength"] == 6


def test_multiplicity_numeric_task(tmp_path, capsys):
    spec = {
        "filtration": {"kind": "diagonal", "rates": [{"p": "0", "q": "1", "s": 2}]},
        "strategy": {"kind": "numeric", "m_max": 10000},
    }
    code, out = run_cli(capsys, ["multiplicity", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    payload = check_report(out)
    assert abs(payload["report"]["multiplicity"] - 2**0.5) < 1e-3
    assert payload["report"]["exact"] is False


def test_mixed_task(tmp_path, capsys):
    code, out = run_cli(capsys, ["mixed", "--input", write(tmp_path, "p.json", BHATTACHARYA)])
    assert code == 0
    payload = check_report(out)
    entries = {tuple(e["type"]): e["value"] for e in payload["report"]["entries"]}
    assert entries == {(2, 0): "2", (1, 1): "1", (0, 2): "3"}


def test_exact_mixed_report_does_not_depend_on_the_seed(tmp_path, capsys):
    path = write(tmp_path, "p.json", INTEGER_EXACT_PINS["mixed-exact-r3"][1])
    outs = []
    for seed in ("0", "5"):
        code, out = run_cli(capsys, ["mixed", "--input", path, "--seed", seed])
        assert code == 0
        assert check_report(out)["report"]["points"] == []
        outs.append(out)
    assert '"seed":0,' in outs[0]
    assert outs[0].replace('"seed":0,', '"seed":5,') == outs[1]


def test_truncate_converge_task(tmp_path, capsys):
    spec = {
        "filtrations": [{"kind": "diagonal", "rates": [{"p": "0", "q": "1", "s": 2}]}],
        "schedule": [1, 2, 5],
    }
    code, out = run_cli(
        capsys, ["truncate-converge", "--input", write(tmp_path, "p.json", spec)]
    )
    assert code == 0
    payload = check_report(out)
    assert payload["report"]["sequences"]["1"] == ["2", "3/2", "3/2"]


def test_quasipoly_task(tmp_path, capsys):
    spec = {
        "filtrations": [{"kind": "valuation", "weights": ["2", "2"]}],
        "period": 2,
    }
    code, out = run_cli(capsys, ["quasipoly", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    payload = check_report(out)
    assert payload["report"]["degree"] == 2
    tops = {
        tuple(c["exponent"]): c["value"]
        for c in payload["report"]["classes"][0]["coefficients"]
        if sum(c["exponent"]) == 2
    }
    assert tops == {(2,): "1/8"}


def test_okounkov_task(tmp_path, capsys):
    spec = {
        "filtration": {"kind": "power", "ideal": {"dim": 2, "gens": [[1, 0], [0, 1]]}},
        "m_max": 16,
    }
    code, out = run_cli(capsys, ["okounkov", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    payload = check_report(out)
    assert payload["report"]["difference"] == "1/2"
    assert payload["report"]["vol_hat"] == "2"


def test_minkowski_pair_task(tmp_path, capsys):
    spec = {"pair": BHATTACHARYA["filtrations"]}
    code, out = run_cli(capsys, ["minkowski", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    payload = check_report(out)
    assert payload["pass"] is True


def test_minkowski_suite_task(tmp_path, capsys):
    spec = {"suite": {"count_d2": 4, "count_d3": 2}}
    code, out = run_cli(capsys, ["minkowski", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    lines = out.strip().splitlines()
    # one JSON line per instance, then a summary record
    assert len(lines) == 7
    for line in lines[:-1]:
        record = check_report(line)
        assert record["pass"] is True and "slacks" in record
    summary = check_report(lines[-1])
    assert summary["pass"] is True
    assert summary["report"]["count"] == 6 and summary["report"]["summary"] is True


def test_rees_task(tmp_path, capsys):
    spec = dict(BHATTACHARYA, slot=1)
    code, out = run_cli(capsys, ["rees", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    assert check_report(out)["pass"] is True


def test_integrality_task(tmp_path, capsys):
    spec = {"ideal": {"dim": 2, "gens": [[2, 0], [0, 2]]}}
    code, out = run_cli(capsys, ["integrality", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    assert check_report(out)["pass"] is True


def test_multigraded_demo_default_input(capsys):
    code, out = run_cli(capsys, ["multigraded-demo"])
    assert code == 0
    payload = check_report(out)
    points = {tuple(p["point"]): p for p in payload["report"]["points"]}
    assert points[(3, 4)]["estimate"] == 5.0
    assert points[(1, 0)]["estimate"] == 1.0
    assert payload["report"]["max_residual"] > 0.05


def test_exit_code_2_on_missing_input(capsys):
    code, out = run_cli(capsys, ["mixed", "--input", "/nonexistent.json"])
    assert code == 2
    assert check_report(out)["error"]["code"] == "SpecValidationError"


def test_exit_code_2_on_unknown_kind(tmp_path, capsys):
    spec = {"filtrations": [{"kind": "mystery"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, ["mixed", "--input", str(path)])
    assert code == 2


def test_exit_code_1_on_engine_error(tmp_path, capsys):
    # table too short for the requested truncation schedule
    spec = {
        "filtrations": [
            {"kind": "table", "ideals": [{"dim": 1, "gens": [[1]]}]}
        ],
        "schedule": [1, 2],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, ["truncate-converge", "--input", str(path)])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "IndexOutOfTable"


def test_exit_code_3_on_unwitnessed_demo(capsys):
    code, out = run_cli(capsys, ["multigraded-demo", "--threshold", "10"])
    assert code == 3
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("flag", ["nan", "inf"])
def test_exit_code_2_on_a_threshold_flag_that_is_not_finite(capsys, flag):
    code, out = run_cli(capsys, ["multigraded-demo", "--threshold", flag])
    assert code == 2
    error = check_report(out)["error"]
    assert error["code"] == "SpecValidationError"
    assert error["message"].startswith("threshold: finite numbers only")


@pytest.mark.parametrize("text", ['{"threshold": "0.05"}', '{"threshold": NaN}'])
def test_exit_code_2_on_a_spec_threshold_that_is_not_a_finite_number(tmp_path, capsys, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    code, out = run_cli(capsys, ["multigraded-demo", "--input", str(path)])
    assert code == 2
    error = check_report(out)["error"]
    assert error["code"] == "SpecValidationError"
    assert error["message"].startswith("threshold: finite numbers only")


def test_an_integer_spec_threshold_is_reported_as_a_float(tmp_path, capsys):
    code, out = run_cli(capsys, ["multigraded-demo", "--input", write(tmp_path, "p.json", {"threshold": 10})])
    assert code == 3
    assert '"threshold":10.0' in out


def test_json_reports_are_deterministic(tmp_path, capsys):
    spec_path = write(tmp_path, "p.json", BHATTACHARYA)
    _, out1 = run_cli(capsys, ["mixed", "--input", spec_path, "--seed", "4"])
    _, out2 = run_cli(capsys, ["mixed", "--input", spec_path, "--seed", "4"])
    assert out1 == out2
    _, out3 = run_cli(capsys, ["mixed", "--input", spec_path, "--seed", "5"])
    payload3 = json.loads(out3)
    assert payload3["seed"] == 5


def test_output_file_and_text_format(tmp_path, capsys):
    spec_path = write(tmp_path, "p.json", BHATTACHARYA)
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, ["mixed", "--input", spec_path, "--output", str(out_path)])
    assert code == 0
    check_report(out_path.read_text())
    code, out = run_cli(capsys, ["mixed", "--input", spec_path, "--format", "text"])
    assert code == 0
    assert "entries" in out


def test_exit_code_2_on_non_integer_exponents(tmp_path, capsys):
    bad_gens = {"ideal": {"dim": 2, "gens": [[1.7, 0], [0, 2]]}}
    bad_dim = {"filtrations": [{"kind": "power", "ideal": {"dim": 2.9, "gens": [[1, 0], [0, 2]]}}]}
    for task, spec in (("colength", bad_gens), ("mixed", bad_dim)):
        path = tmp_path / f"{task}.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli(capsys, [task, "--input", str(path)])
        assert code == 2
        assert check_report(out)["error"]["code"] == "SpecValidationError"


# Reports recorded before the d=2 staircase kernels (antichain check, product,
# closed-form colength) were rewritten; numeric-path reports must not move.
PINNED_MIXED_NUMERIC_64 = (
    '{"report":{"d":2,"entries":[{"exact":false,"type":[2,0],"value":2.0078125},'
    '{"exact":false,"type":[1,1],"value":0.9951171875},'
    '{"exact":false,"type":[0,2],"value":3.021484375}],'
    '"points":[[4,4],[1,3],[5,4]],"r":2,"strategy":"numeric"},"seed":0,"task":"mixed"}\n'
)
PINNED_COLENGTH_POWER_40_SHA256 = (
    "e8ada31ae6d236207f9a6843fb026445bdd884b14b76f086695761df61570d4b"
)


def test_numeric_mixed_report_bytes_pinned(tmp_path, capsys):
    spec = dict(BHATTACHARYA, strategy={"kind": "numeric", "m_max": 64})
    code, out = run_cli(capsys, ["mixed", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    assert out == PINNED_MIXED_NUMERIC_64


def test_colength_report_bytes_pinned(tmp_path, capsys):
    ideal = power(minimalize([(3, 0), (1, 1), (0, 4)], 2), 40)
    spec = {"ideal": ideal.to_json()}
    code, out = run_cli(capsys, ["colength", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    report = check_report(out)["report"]
    assert report["colength"] == 5700 and len(report["ideal"]["gens"]) == 81
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_COLENGTH_POWER_40_SHA256


# SHA-256 of reports whose evaluation goes through each per-kind scale,
# core and Newton-candidate decision, and through the table solve; recorded
# before those decisions moved onto the filtration classes.
SQRT3 = {"p": "0", "q": "1", "s": 3}
HOOK_PINS = {
    # re-recorded when exact tables stopped drawing sample points: the one
    # change is "points":[]
    "mixed-shifted-power": (
        "mixed",
        {
            "filtrations": [
                {"kind": "shifted_power", "ideal": {"dim": 2, "gens": [[2, 0], [1, 1], [0, 3]]}, "shift": 2},
                {"kind": "power", "ideal": {"dim": 2, "gens": [[1, 0], [0, 2]]}},
            ]
        },
        "be5f0b18cc29a1376975d928d5e0869be040fffe7caa99be0e5bd397a039eef2",
    ),
    "multiplicity-truncated-sqrt3": (
        "multiplicity",
        {"filtration": {"kind": "truncated", "base": {"kind": "diagonal", "rates": [SQRT3]}, "a": 7}},
        "ed9e55f55923614d0fc78ab7cf3ace230e85387216ca5a73faf4586f5a46b8bf",
    ),
    "multiplicity-rational-diagonal": (
        "multiplicity",
        {"filtration": {"kind": "diagonal", "rates": ["7/3"]}},
        "4ba6c3cad944b279757444fc7e29800d2c698235e7adf8e9e49960bd80cc8c00",
    ),
    "truncate-converge-valuation": (
        "truncate-converge",
        {
            "filtrations": [{"kind": "valuation", "weights": [{"p": "1", "q": "1", "s": 2}, "2"]}],
            "schedule": [1, 2, 4],
        },
        "d61cb6490e1b4830e7ce56350cef82c2cf9848fcd4d2df0bafa6045becc7ef74",
    ),
    "minkowski-pair": (
        "minkowski",
        {
            "pair": [
                {"kind": "shifted_power", "ideal": {"dim": 2, "gens": [[3, 0], [1, 1], [0, 2]]}, "shift": 1},
                {"kind": "power", "ideal": {"dim": 2, "gens": [[2, 0], [0, 5]]}},
            ]
        },
        "0bf2008a62fd115ba42ded3bdb7d5cbccff7253331204e366c899aa5fd4d1102",
    ),
    "mixed-numeric-table": (
        "mixed",
        {
            "filtrations": [
                {"kind": "valuation", "weights": ["1", "3/2"]},
                {"kind": "power", "ideal": {"dim": 2, "gens": [[3, 0], [1, 1], [0, 2]]}},
            ],
            "strategy": {"kind": "numeric", "m_max": 16},
        },
        "78148be0818bc29d192187227034eb767a529695a3d32f7d87d9b135c4381533",
    ),
    "quasipoly-power": (
        "quasipoly",
        {"filtrations": [{"kind": "power", "ideal": {"dim": 2, "gens": [[2, 0], [1, 1], [0, 3]]}}], "period": 1},
        "f4091e173c1df41f35e162cbf2250665ce1c90131bd06a1fe8d160cdbe6f7e5a",
    ),
    "quasipoly-valuation": (
        "quasipoly",
        {"filtrations": [{"kind": "valuation", "weights": ["3/2", "1"]}], "period": 3},
        "46b927c9f9a96eada9d3430618836b3f0a59c0713e02190df4a82fe768639c66",
    ),
}


@pytest.mark.parametrize("name", sorted(HOOK_PINS))
def test_hook_report_bytes_pinned(tmp_path, capsys, name):
    task, spec, digest = HOOK_PINS[name]
    path = write(tmp_path, "p.json", spec)
    code, out = run_cli(capsys, [task, "--input", path, "--seed", "3"])
    assert code == 0
    check_report(out.splitlines()[-1])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of valuation reports at the default seed, recorded while valuation
# ideals still came from a full box scan with float-guessed floors.
SQRT2 = {"p": "0", "q": "1", "s": 2}
VALUATION_PINS = {
    # the exact strategy finds no scale, so the numeric fallback walks to m = 1024
    "okounkov-sqrt2": (
        "okounkov",
        {"filtration": {"kind": "valuation", "weights": [SQRT2, "1"]}, "m_max": 8},
        "cee30203c60740f20ee79a0ebb5d1b1c9c7c7313d534c973fff8d8e0e511e7cf",
    ),
    "multiplicity-numeric-d3": (
        "multiplicity",
        {
            "filtration": {"kind": "valuation", "weights": ["1", SQRT3, {"p": "2", "q": "1/2", "s": 3}]},
            "strategy": {"kind": "numeric", "m_max": 8},
        },
        "ddc66b249279eda538bdc11cd8a56d2be58295e67457761ed1eed9e07e3239f6",
    ),
    "truncate-converge-sqrt5": (
        "truncate-converge",
        {
            "filtrations": [{"kind": "valuation", "weights": ["1", {"p": "0", "q": "1", "s": 5}]}],
            "schedule": [1, 2, 3, 4, 6],
        },
        "5525a1d7831184f7eba49283fe2d72b16582346fe4e9026390592aae0afd874d",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUATION_PINS))
def test_valuation_report_bytes_pinned(tmp_path, capsys, name):
    task, spec, digest = VALUATION_PINS[name]
    code, out = run_cli(capsys, [task, "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    check_report(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of d=2 power reports whose staircases come from the squaring chain
# of ``power``, recorded before d=2 products moved to packed integer keys.
POWER_CHAIN_PINS = {
    "multiplicity-numeric-power": (
        "multiplicity",
        {
            "filtration": {"kind": "power", "ideal": {"dim": 2, "gens": [[5, 0], [3, 1], [1, 3], [0, 6]]}},
            "strategy": {"kind": "numeric", "m_max": 64, "m0": 5},
        },
        "d230a94e6c389f3ba8d24623bf311352d490418e68bc89e49a747be05efeb710",
    ),
    "okounkov-power": (
        "okounkov",
        {"filtration": {"kind": "power", "ideal": {"dim": 2, "gens": [[4, 0], [1, 2], [0, 5]]}}, "m_max": 64},
        "5133182b4f4ff0d657ab87abf62d71b97a802c2f2797bc36fd4b4519f1fca6ff",
    ),
}


@pytest.mark.parametrize("name", sorted(POWER_CHAIN_PINS))
def test_power_chain_report_bytes_pinned(tmp_path, capsys, name):
    task, spec, digest = POWER_CHAIN_PINS[name]
    code, out = run_cli(capsys, [task, "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    check_report(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of numeric reports on all-power families, recorded while every
# sample still multiplied the factors' large powers together: (task, spec,
# seed, digest).  The d = 3 seed draws small sample points.
NUMERIC_POWER_FAMILY_PINS = {
    "mixed-d2-r3": (
        "mixed",
        {
            "filtrations": [
                _power([[3, 0], [1, 1], [0, 2]]),
                _power([[2, 0], [0, 5]]),
                _power([[4, 0], [2, 1], [0, 3]]),
            ],
            "strategy": {"kind": "numeric", "m_max": 16},
        },
        0,
        "bc459c14bbc78bb86e75a0da6a75a482856a318fb74b9d71a15cdc9217683c3d",
    ),
    "mixed-d3-pair": (
        "mixed",
        {
            "filtrations": [
                _power([[2, 0, 0], [0, 1, 1], [0, 2, 0], [0, 0, 2]]),
                _power([[1, 0, 0], [0, 2, 0], [0, 0, 1]]),
            ],
            "strategy": {"kind": "numeric", "m_max": 2},
        },
        46,
        "245d8c5e116c9db0b3342f0947c92f34fe367b5313182596497a5a2499606dd8",
    ),
    "minkowski-d2-pair": (
        "minkowski",
        {
            "pair": [_power([[3, 0], [1, 1], [0, 2]]), _power([[2, 0], [0, 5]])],
            "strategy": {"kind": "numeric", "m_max": 16},
        },
        0,
        "121f6b3b9bb8bd217bd48d90ef9b3e656104aaa25717a4509adc545538c140a1",
    ),
}


@pytest.mark.parametrize("name", sorted(NUMERIC_POWER_FAMILY_PINS))
def test_numeric_power_family_report_bytes_pinned(tmp_path, capsys, name):
    task, spec, seed, digest = NUMERIC_POWER_FAMILY_PINS[name]
    path = write(tmp_path, "p.json", spec)
    code, out = run_cli(capsys, [task, "--input", path, "--seed", str(seed)])
    assert code == 0
    check_report(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of reports recorded while every d=2 product still went through the
# packed-key kernel and d=2 integral closures through the box scan.
# (y^3, xy, x^3) is integrally closed, (x^2, y^2) is not.
CLOSED_FACTOR_PINS = {
    "multiplicity-numeric-closed": (
        "multiplicity",
        {"filtration": _power([[0, 3], [1, 1], [3, 0]]), "strategy": {"kind": "numeric", "m_max": 64}},
        "078ecff604b9362bf71913e3882727e101c3a13cd02e3d563489be8683665d3c",
    ),
    "mixed-numeric-closed-and-not": (
        "mixed",
        {
            "filtrations": [_power([[0, 3], [1, 1], [3, 0]]), _power([[2, 0], [0, 2]])],
            "strategy": {"kind": "numeric", "m_max": 16},
        },
        "bcf5af9a94e7871f5bf08b5c762f74153694dec244f17e0fccc52e8a2a01577e",
    ),
    "integrality-large-box": (
        "integrality",
        {"ideal": {"dim": 2, "gens": [[300, 0], [0, 307], [100, 150]]}},
        "c71cab01c2d792943fec683ae7e00dad87d57d424fe6542a6307ccafccfc0253",
    ),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FACTOR_PINS))
def test_closed_factor_report_bytes_pinned(tmp_path, capsys, name):
    task, spec, digest = CLOSED_FACTOR_PINS[name]
    code, out = run_cli(capsys, [task, "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    check_report(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "strategy",
    [
        {"kind": "exact", "multiplicity_method": "hilbert-samuel"},
        {"kind": "numeric", "m_max": 8.7},
        {"kind": "exact", "hs_budget": 24.0},
        {"kind": "exact", "hs_budget": 3},
        {"kind": "numeric", "m0": True},
    ],
)
def test_exit_code_2_on_invalid_strategy(tmp_path, capsys, strategy):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(BHATTACHARYA, strategy=strategy)))
    code, out = run_cli(capsys, ["mixed", "--input", str(path)])
    assert code == 2
    assert check_report(out)["error"]["code"] == "SpecValidationError"


@pytest.mark.parametrize(
    "filtration, message",
    [
        ({"kind": "power"}, "power filtration: missing field 'ideal'"),
        ({"kind": "power", "ideal": {"dim": 2}}, "ideal: missing field 'gens'"),
        ({"kind": "shifted_power", "ideal": {"dim": 1, "gens": [[2]]}}, "shifted_power filtration: missing field 'shift'"),
        ({"kind": "valuation"}, "valuation filtration: missing field 'weights'"),
        ({"kind": "truncated", "base": {"kind": "diagonal", "rates": ["1"]}}, "truncated filtration: missing field 'a'"),
    ],
)
def test_missing_spec_field_is_named(tmp_path, capsys, filtration, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"filtration": filtration}))
    code, out = run_cli(capsys, ["multiplicity", "--input", str(path)])
    assert code == 2
    assert check_report(out)["error"] == {"code": "SpecValidationError", "message": message}


def test_strategy_rejects_unknown_multiplicity_method():
    with pytest.raises(SpecValidationError, match="unknown multiplicity method 'hilbert-samuel'"):
        cli._strategy_from_json({"kind": "exact", "multiplicity_method": "hilbert-samuel"}, None)


def test_multiplicity_methods_match_the_input_schema():
    enum = INPUT_SCHEMA["definitions"]["strategy"]["properties"]["multiplicity_method"]["enum"]
    assert list(cli.MULTIPLICITY_METHODS) == enum
    for method in enum:
        cli._strategy_from_json({"kind": "exact", "multiplicity_method": method}, None)


# SHA-256 of multiplicity reports under "multiplicity_method": "hilbert_samuel",
# recorded while that method still ran the finite-difference loop in d <= 3;
# the covolume now answers these requests with the same bytes.  The d = 3
# ideal is the one whose differences plateau at 58 before reaching e = 59.
HILBERT_SAMUEL = {"kind": "exact", "multiplicity_method": "hilbert_samuel"}
HILBERT_SAMUEL_METHOD_PINS = {
    "power-d3": (
        {"kind": "power", "ideal": {"dim": 3, "gens": [[0, 0, 3], [0, 5, 0], [1, 2, 1], [4, 0, 0]]}},
        "fe632d097a0329b89e1edb753634d2fbfa2bdc2ee54f4345159e07780dd1a0dc",
    ),
    "power-d2": (
        {"kind": "power", "ideal": {"dim": 2, "gens": [[3, 0], [1, 1], [0, 4]]}},
        "2112946f08946e889449ff34f116dbd6e198d271dabd1034e422e2baf1c600af",
    ),
    "valuation-d2": (
        {"kind": "valuation", "weights": ["1", "3/2"]},
        "dffaa076cf214d37143e0de9d1210798fd653bac503fb0ef7c3b6afbe2b8c703",
    ),
}


@pytest.mark.parametrize("name", sorted(HILBERT_SAMUEL_METHOD_PINS))
def test_hilbert_samuel_method_report_bytes_pinned(tmp_path, capsys, name):
    filtration, digest = HILBERT_SAMUEL_METHOD_PINS[name]
    spec = {"filtration": filtration, "strategy": HILBERT_SAMUEL}
    code, out = run_cli(capsys, ["multiplicity", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    check_report(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_small_hs_budget_does_not_limit_d3(tmp_path, capsys):
    # the finite-difference loop needs six powers in d = 3; the covolume none
    spec = {
        "filtration": _power([[2, 0, 0], [0, 3, 0], [0, 0, 1]]),
        "strategy": dict(HILBERT_SAMUEL, hs_budget=5),
    }
    code, out = run_cli(capsys, ["multiplicity", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    assert check_report(out)["report"]["multiplicity"] == "6"


# recorded before the d <= 3 requests stopped running the finite-difference loop
D4_MULTIPLICITY_SHA256 = "ae428be38a76164ca0f2e14397f21bd8f723947ffcd5610c49b1fd3309bd92cd"


def test_d4_multiplicity_report_bytes_pinned(tmp_path, capsys):
    spec = {"filtration": _power([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]])}
    code, out = run_cli(capsys, ["multiplicity", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    assert check_report(out)["report"]["multiplicity"] == "6"
    assert hashlib.sha256(out.encode()).hexdigest() == D4_MULTIPLICITY_SHA256


# SHA-256 of exact d >= 4 reports, recorded while the Hilbert-Samuel plateau
# still computed them; the covolume now gives the same bytes.
D4_PLUS_PINS = {
    "d4-maximal": (
        "multiplicity",
        {"filtration": _power([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])},
        "46651f2c5f486ad9914d66dac8171ac1bf3c98b654ff021046c7874f1e2eb49e",
    ),
    "d4-x2-y-z-w3": (
        "multiplicity",
        {"filtration": _power([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]])},
        "ae428be38a76164ca0f2e14397f21bd8f723947ffcd5610c49b1fd3309bd92cd",
    ),
    "d4-squares-xyzw": (
        "multiplicity",
        {"filtration": _power([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2], [1, 1, 1, 1]])},
        "cd8dcbb0a30a38a509d7bebc0575b93dbac7e87a328fc4f63f506813b12c757c",
    ),
    "d4-valuation-1-2-1-1": (
        "multiplicity",
        {"filtration": {"kind": "valuation", "weights": ["1", "2", "1", "1"]}},
        "881e339cf20a2a48e686ee0384e714d75aa51e22933fd653cbfee7ad782a049f",
    ),
    "d5-squares-x1x2x5": (
        "multiplicity",
        {"filtration": _power([[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 2, 0], [0, 0, 0, 0, 2], [1, 1, 0, 0, 1]])},
        "03fc350b7e535acd9a11dd3276b6a5791e3be1e45eb33604086ab5a2baec3ca0",
    ),
    # the Hilbert-Samuel plateau took about 20 minutes on 2 cores for this table
    "d4-mixed-maximal-valuation-1-1-1-2": (
        "mixed",
        {
            "filtrations": [
                _power([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
                {"kind": "valuation", "weights": ["1", "1", "1", "2"]},
            ]
        },
        "496aa64bfc2796804bc941002103286ff2b8bf78c89fe52b65ee3535266e989e",
    ),
}


@pytest.mark.parametrize("name", sorted(D4_PLUS_PINS))
def test_d4_plus_report_bytes_pinned(tmp_path, capsys, name):
    task, spec, digest = D4_PLUS_PINS[name]
    code, out = run_cli(capsys, [task, "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    check_report(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_hs_budget_selects_nothing_in_d4(tmp_path, capsys):
    # a budget of four powers once stopped the d >= 4 engine before its plateau
    task, spec, digest = D4_PLUS_PINS["d4-squares-xyzw"]
    spec = dict(spec, strategy={"kind": "exact", "hs_budget": 4})
    code, out = run_cli(capsys, [task, "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


TRUNCATED_SQRT2 = {"kind": "truncated", "base": {"kind": "diagonal", "rates": [SQRT2]}, "a": 3}
BAD_INTEGER_SPECS = {
    "radicand": ("multiplicity", {"filtration": {"kind": "valuation", "weights": [{"p": "0", "q": "1", "s": 2.9}, "1"]}}),
    "period": ("quasipoly", {"filtrations": [{"kind": "valuation", "weights": ["1", "2"]}], "period": 1.9}),
    "truncation-level": ("multiplicity", {"filtration": dict(TRUNCATED_SQRT2, a=2.7)}),
    "shift": ("mixed", {"filtrations": [{"kind": "shifted_power", "ideal": {"dim": 1, "gens": [[2]]}, "shift": "1"}]}),
    "window": ("quasipoly", {"filtrations": [{"kind": "valuation", "weights": ["1", "2"]}], "period": 2, "window": 2.0}),
    "schedule": ("truncate-converge", {"filtrations": [TRUNCATED_SQRT2], "schedule": [1, 2.5]}),
    "slot": ("rees", dict(BHATTACHARYA, slot=True)),
    "okounkov-m_max": ("okounkov", {"filtration": TRUNCATED_SQRT2, "m_max": 8.5}),
    "demo-arity": ("multigraded-demo", {"arity": 2.0}),
    "demo-m_max": ("multigraded-demo", {"m_max": "64"}),
    "demo-weights-bool": ("multigraded-demo", {"weights": [True, 1]}),
    "demo-weights-float": ("multigraded-demo", {"weights": [2.5, 1]}),
    "demo-weights-zero": ("multigraded-demo", {"weights": [0, 1]}),
    "targets-bool": ("truncate-converge", dict(BHATTACHARYA, schedule=[1], targets=[[True, True]])),
    "targets-float": ("truncate-converge", dict(BHATTACHARYA, schedule=[1], targets=[[1.0, 1]])),
    "targets-negative": ("truncate-converge", dict(BHATTACHARYA, schedule=[1], targets=[[3, -1]])),
    "suite-count": ("integrality", {"suite": {"count": 2.2}}),
    "suite-count_d3": ("minkowski", {"suite": {"count_d2": 1, "count_d3": 0.5}}),
    "suite-count-zero": ("integrality", {"suite": {"count": 0}}),
}


@pytest.mark.parametrize("name", sorted(BAD_INTEGER_SPECS))
def test_exit_code_2_on_bad_integer_spec_fields(tmp_path, capsys, name):
    task, spec = BAD_INTEGER_SPECS[name]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, [task, "--input", str(path)])
    assert code == 2
    assert check_report(out)["error"]["code"] == "SpecValidationError"


NOT_AN_OBJECT_SPECS = {
    "minkowski-spec": ("minkowski", [1]),
    "integrality-spec": ("integrality", [1]),
    "demo-spec": ("multigraded-demo", [1]),
    "minkowski-suite": ("minkowski", {"suite": 3}),
    "integrality-suite": ("integrality", {"suite": 3}),
    "minkowski-pair-entry": ("minkowski", {"pair": [_power([[2, 0], [0, 1]]), 7]}),
    "multiplicity-strategy": ("multiplicity", {"filtration": _power([[2, 0], [0, 1]]), "strategy": 5}),
    "multiplicity-filtration": ("multiplicity", {"filtration": 5}),
    "mixed-filtrations-entry": ("mixed", {"filtrations": [3]}),
    "truncated-base": ("multiplicity", {"filtration": {"kind": "truncated", "base": 5, "a": 2}}),
}


@pytest.mark.parametrize("name", sorted(NOT_AN_OBJECT_SPECS))
def test_exit_code_2_on_json_values_that_are_not_objects(tmp_path, capsys, name):
    task, spec = NOT_AN_OBJECT_SPECS[name]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, [task, "--input", str(path)])
    assert code == 2
    error = check_report(out)["error"]
    assert error["code"] == "SpecValidationError"
    assert "a JSON object only" in error["message"]


BUDGET_CASES = {
    "okounkov-zero": ("okounkov", {"filtration": TRUNCATED_SQRT2}, "0"),
    "okounkov-negative": ("okounkov", {"filtration": TRUNCATED_SQRT2}, "-3"),
    "numeric-zero": ("multiplicity", {"filtration": TRUNCATED_SQRT2, "strategy": {"kind": "numeric"}}, "0"),
    "numeric-one": ("multiplicity", {"filtration": TRUNCATED_SQRT2, "strategy": {"kind": "numeric"}}, "1"),
    "demo-zero": ("multigraded-demo", {}, "0"),
}


@pytest.mark.parametrize("name", sorted(BUDGET_CASES))
def test_exit_code_2_on_budget_below_the_field_minimum(tmp_path, capsys, name):
    # --budget replaces m_max, so it is held to the minimum of that field
    task, spec, budget = BUDGET_CASES[name]
    code, out = run_cli(capsys, [task, "--input", write(tmp_path, "p.json", spec), "--budget", budget])
    assert code == 2
    error = check_report(out)["error"]
    assert error["code"] == "SpecValidationError"
    assert error["message"] == f"--budget: integers >= {2 if task == 'multiplicity' else 1} only, got {budget}"


@pytest.mark.parametrize(
    "weights, multiplicity",
    [
        # a scale search bounded by 24 would miss the scale 25
        (["1", "25"], "1/25"),
        # detection at the default depth 4 took the spurious scale 2 and
        # reported 1/4 and 1/8
        (["5/2", "2"], "1/5"),
        (["5/2", "2", "2"], "1/10"),
    ],
)
def test_rational_valuation_multiplicity_is_exact(tmp_path, capsys, weights, multiplicity):
    # the limit body is the simplex under the intercepts 1/w_i, so e = 1/prod(w_i)
    spec = {"filtration": {"kind": "valuation", "weights": weights}}
    code, out = run_cli(capsys, ["multiplicity", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    assert check_report(out)["report"]["multiplicity"] == multiplicity


# detection at the default depth 4 took the spurious scale 2 for weights
# (1, sqrt 5) and reported the exact multiplicity 1/2; the truth is 1/sqrt 5
SQRT5_VALUATION = {"kind": "valuation", "weights": ["1", {"p": "0", "q": "1", "s": 5}]}


def test_irrational_valuation_has_no_exact_multiplicity(tmp_path, capsys):
    spec = {"filtration": SQRT5_VALUATION}
    code, out = run_cli(capsys, ["multiplicity", "--input", write(tmp_path, "a.json", spec)])
    assert code == 1
    assert check_report(out)["error"]["code"] == "NotNoetherian"
    numeric = dict(spec, strategy={"kind": "numeric", "m_max": 32})
    code, out = run_cli(capsys, ["multiplicity", "--input", write(tmp_path, "b.json", numeric)])
    assert code == 0
    assert check_report(out)["report"]["limit"]["exact"] is False


def test_okounkov_irrational_valuation_falls_back_to_numeric(tmp_path, capsys):
    spec = {"filtration": SQRT5_VALUATION, "m_max": 16}
    code, out = run_cli(capsys, ["okounkov", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    limit = check_report(out)["report"]["limit"]
    assert limit["exact"] is False
    assert abs(limit["value"] - 1 / (2 * 5**0.5)) < 1e-3


def test_quasipoly_period_must_be_a_multiple_of_the_body_denominator(tmp_path, capsys):
    # the body of (5/2, 2) has the intercepts 2/5 and 1/2, so D = 10; detection
    # took the spurious scale 2, and period 2 fitted the top coefficient 1/8
    spec = {"filtrations": [{"kind": "valuation", "weights": ["5/2", "2"]}], "period": 2}
    code, out = run_cli(capsys, ["quasipoly", "--input", write(tmp_path, "a.json", spec)])
    assert code == 1
    assert check_report(out)["error"]["code"] == "NotNoetherian"
    code, out = run_cli(capsys, ["quasipoly", "--input", write(tmp_path, "b.json", dict(spec, period=10))])
    assert code == 0
    for cls in check_report(out)["report"]["classes"]:
        assert cls["coefficients"][0] == {"exponent": [2], "value": "1/10"}


# SHA-256 of a d=3 truncated-valuation report, recorded while its exact
# limits still came from detected power-stability scales (about a minute).
TRUNCATED_VALUATION_D3_SHA256 = "fb936c769d208f0f67e8e6fa4209da49b8809aac29776388c5bb16b2e015ef92"


def test_truncated_d3_valuation_report_bytes_pinned(tmp_path, capsys):
    spec = {
        "filtrations": [{"kind": "valuation", "weights": ["1", SQRT2, "3/2"]}],
        "schedule": [1, 2, 3, 4],
    }
    code, out = run_cli(capsys, ["truncate-converge", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    check_report(out)
    assert hashlib.sha256(out.encode()).hexdigest() == TRUNCATED_VALUATION_D3_SHA256


EXACT_ONLY_SPECS = {
    "truncate-converge": {"filtrations": [{"kind": "valuation", "weights": ["1", SQRT3]}], "schedule": [1, 2]},
    "quasipoly": {"filtrations": [{"kind": "valuation", "weights": ["1", "2"]}], "period": 2},
}


@pytest.mark.parametrize(
    "strategy",
    [
        {"kind": "numeric", "m_max": "bogus"},
        {"kind": "numeric"},
        {"kind": "exact", "multiplicity_method": "bogus"},
        {"kind": "exact", "hs_budget": 0},
    ],
)
@pytest.mark.parametrize("task", sorted(EXACT_ONLY_SPECS))
def test_exact_only_tasks_validate_strategy(tmp_path, capsys, task, strategy):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(EXACT_ONLY_SPECS[task], strategy=strategy)))
    code, out = run_cli(capsys, [task, "--input", str(path)])
    assert code == 2
    assert check_report(out)["error"]["code"] == "SpecValidationError"


@pytest.mark.parametrize("task", sorted(EXACT_ONLY_SPECS))
def test_exact_only_tasks_accept_an_exact_strategy(tmp_path, capsys, task):
    spec = EXACT_ONLY_SPECS[task]
    code, default = run_cli(capsys, [task, "--input", write(tmp_path, "a.json", spec)])
    assert code == 0
    explicit = dict(spec, strategy={"kind": "exact"})
    assert run_cli(capsys, [task, "--input", write(tmp_path, "b.json", explicit)]) == (0, default)


HALF_TABLE = {"kind": "table", "ideals": [{"dim": 1, "gens": [[-(-n // 2)]]} for n in range(1, 17)]}


def test_quasipoly_fits_a_table_at_the_period_it_generates(tmp_path, capsys):
    # x^ceil(n/2) is generated in the degrees 1 and 2, so 2 is a proven period
    spec = {"filtrations": [HALF_TABLE], "period": 2}
    code, out = run_cli(capsys, ["quasipoly", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    for cls in check_report(out)["report"]["classes"]:
        assert cls["coefficients"][0] == {"exponent": [1], "value": "1/2"}


# x * x is not in (x^3), so the entries generate no filtration to measure
NOT_A_FILTRATION = {"kind": "table", "ideals": [{"dim": 1, "gens": [[1]]}, {"dim": 1, "gens": [[3]]}]}


def test_table_that_is_not_a_filtration_exits_2(tmp_path, capsys):
    spec = {"filtration": NOT_A_FILTRATION}
    code, out = run_cli(capsys, ["multiplicity", "--input", write(tmp_path, "p.json", spec)])
    assert code == 2
    assert check_report(out)["error"]["code"] == "SpecValidationError"


@pytest.mark.parametrize(
    "task, spec",
    [
        ("multiplicity", {"filtration": {"kind": "truncated", "a": 2, "base": NOT_A_FILTRATION}}),
        ("truncate-converge", {"filtrations": [NOT_A_FILTRATION], "schedule": [1, 2]}),
    ],
    ids=["multiplicity", "truncate-converge"],
)
def test_truncated_table_that_is_not_a_filtration_exits_2(tmp_path, capsys, task, spec):
    code, out = run_cli(capsys, [task, "--input", write(tmp_path, "p.json", spec)])
    assert code == 2
    error = check_report(out)["error"]
    assert error["code"] == "SpecValidationError"
    assert "multiplicative fails at (1, 1)" in error["message"]


def test_okounkov_on_the_d3_maximal_ideal(tmp_path, capsys):
    spec = {"filtration": _power([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "m_max": 4}
    code, out = run_cli(capsys, ["okounkov", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    report = check_report(out)["report"]
    assert (report["m"], report["vol_body"], report["difference"]) == (4, "7/6", "1/6")
    assert report["limit"] == {"exact": True, "strategy": "exact_noetherian", "value": "1/6"}


# SHA-256 of the default JSON report on d = 3 shapes whose hulls hold
# hundreds of points, recorded while d = 3 facets were searched among point
# triples: (task, spec, digest).
D3_HULL_PINS = {
    "okounkov-maximal-ideal-m8": (
        "okounkov",
        {"filtration": _power([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "m_max": 8},
        "3764dc72cf87cd37fbe7aa729b5302132da27b59c9c3a24ef0052734b96f0248",
    ),
    # recorded while the fiber hull came from per-column scans (about 4 s)
    "okounkov-gens-d3": (
        "okounkov",
        {"filtration": _power([[2, 0, 0], [0, 3, 0], [0, 0, 2], [1, 1, 1]]), "m_max": 8},
        "34eed8f6bb8623024decc71d188e811495e29d53a5a75dcad5dc68e283c3b5a8",
    ),
    "integrality-pure-powers-20": (
        "integrality",
        {"ideal": {"dim": 3, "gens": [[20, 0, 0], [0, 20, 0], [0, 0, 20]]}},
        "88a6a9eb206437284aa3ea23c1c858ea43a7bc11fdffd8a33dc05bc2c5352e2e",
    ),
}


@pytest.mark.parametrize("name", sorted(D3_HULL_PINS))
def test_d3_hull_report_bytes_pinned(tmp_path, capsys, name):
    task, spec, digest = D3_HULL_PINS[name]
    code, out = run_cli(capsys, [task, "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    check_report(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of numeric Rees reports on r = 3 families, recorded while the
# reduced table and the single multiplicity were computed apart from the
# full table: (spec, seed, digest).  Both exit 3, since numeric entries
# differ from the direct multiplicities.
NUMERIC_REES_PINS = {
    "powers-and-valuation": (
        {
            "filtrations": [
                _power([[3, 0], [1, 1], [0, 2]]),
                _power([[2, 0], [0, 5]]),
                {"kind": "valuation", "weights": ["1", "1/2"]},
            ],
            "slot": 2,
            "strategy": {"kind": "numeric", "m_max": 16},
        },
        0,
        "40ac4510245e2879d43dcfb5677fd74a15b39c8c6b7b079e3ffacb1aaeef9897",
    ),
    "powers": (
        {
            "filtrations": [
                _power([[3, 0], [1, 1], [0, 2]]),
                _power([[2, 0], [0, 5]]),
                _power([[4, 0], [2, 1], [0, 3]]),
            ],
            "slot": 3,
            "strategy": {"kind": "numeric", "m_max": 16},
        },
        5,
        "ca13cec6e04253f78a3680097d244076b54bf61d14097f4486e5bc12ed621dca",
    ),
}


@pytest.mark.parametrize("name", sorted(NUMERIC_REES_PINS))
def test_numeric_rees_report_bytes_pinned(tmp_path, capsys, name):
    spec, seed, digest = NUMERIC_REES_PINS[name]
    path = write(tmp_path, "p.json", spec)
    code, out = run_cli(capsys, ["rees", "--input", path, "--seed", str(seed)])
    assert code == 3
    check_report(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


M2 = _power([[1, 0], [0, 1]])
M3 = _power([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
# (task, spec): a pair that is not two filtrations, or filtrations of
# different dimensions, is an input error
MALFORMED_FAMILIES = {
    "pair-of-one": ("minkowski", {"pair": [M2]}),
    "pair-of-three": ("minkowski", {"pair": [M2, M2, 7]}),
    "pair-mixed-dims": ("minkowski", {"pair": [M2, M3]}),
    "mixed-mixed-dims": ("mixed", {"filtrations": [M2, M3]}),
    "rees-mixed-dims": ("rees", {"filtrations": [M2, M2, M3], "slot": 1}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FAMILIES))
def test_exit_code_2_on_malformed_families(tmp_path, capsys, name):
    task, spec = MALFORMED_FAMILIES[name]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(spec))  # some of these break the input schema
    code, out = run_cli(capsys, [task, "--input", str(path)])
    assert code == 2
    assert json.loads(out)["error"]["code"] == "SpecValidationError"


# SHA-256 of reports at --seed 3 recorded while linalg.solve, monomial
# matrices, polygon areas and Newton-region membership still worked in
# Fraction arithmetic: the 6x6 table solve and its sample points, a Rees
# check, the d=3 membership path of integrality, the d=1 Okounkov body and
# the witness normal equations.
INTEGER_EXACT_PINS = {
    # re-recorded when exact tables stopped drawing sample points: the one
    # change is "points":[]
    "mixed-exact-r3": (
        "mixed",
        {
            "filtrations": [
                _power([[3, 0], [1, 1], [0, 2]]),
                _power([[2, 0], [0, 5]]),
                {"kind": "shifted_power", "ideal": {"dim": 2, "gens": [[4, 0], [1, 2], [0, 3]]}, "shift": 1},
            ]
        },
        "1a13d36a0b1c24063b519352c3966f6d785008c393718ec3f952ab9c4624ace1",
    ),
    "rees-slot2": (
        "rees",
        {
            "filtrations": [_power([[2, 0], [0, 1]]), _power([[1, 0], [0, 3]]), _power([[3, 0], [1, 1], [0, 2]])],
            "slot": 2,
        },
        "a3f7d6c58591b8c90de3374eabb92205864f5a371748562b6b81d3a7d4e85a4d",
    ),
    "integrality-d3": (
        "integrality",
        {"ideal": {"dim": 3, "gens": [[4, 0, 0], [0, 3, 0], [0, 0, 5], [1, 1, 1], [2, 0, 1]]}},
        "88cf099bda5b26bb5f629135c84353caea7c4884d13dbef297b0d5c0e1886b02",
    ),
    "okounkov-diagonal-d1": (
        "okounkov",
        {"filtration": {"kind": "diagonal", "rates": ["7/3"]}, "m_max": 16},
        "6311995bf662ead9681efb93ebc53a9fa94aea435831208ff8522feae67e0153",
    ),
    "multigraded-demo": (
        "multigraded-demo",
        None,
        "3afcd389df17b21e7333d5d1cae886273f9364bbe368ca9a467e0d56ccd17db9",
    ),
}


@pytest.mark.parametrize("name", sorted(INTEGER_EXACT_PINS))
def test_integer_exact_report_bytes_pinned(tmp_path, capsys, name):
    task, spec, digest = INTEGER_EXACT_PINS[name]
    argv = [task, "--seed", "3"]
    if spec is not None:
        argv += ["--input", write(tmp_path, "p.json", spec)]
    code, out = run_cli(capsys, argv)
    assert code == 0
    check_report(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `integrality` reports at --seed 3, recorded while d = 3
# Newton facets came from the lifted 2D families of the three coordinate
# projections: an ideal with a minimal generator inside the Newton
# polyhedron of the others, one whose generators all lie on one plane,
# (x^20, y^20, z^20), and the random suite of six: (spec, digest).
INTEGRALITY_PINS = {
    "interior-generator": (
        {"ideal": {"dim": 3, "gens": [[5, 0, 0], [0, 6, 0], [0, 0, 7], [1, 2, 2], [3, 2, 1]]}},
        "5cbebda24d5f50d6e3ffddda4d2e9dde0813c7ef5a10b99792037c8cfbddf6e1",
    ),
    "flat-face": (
        {"ideal": {"dim": 3, "gens": [[6, 0, 0], [0, 4, 0], [0, 0, 2], [3, 2, 0], [3, 0, 1], [0, 2, 1]]}},
        "ec93f54b516b1974c0acf465154a55d9c63b284d9a030574acf62218a89db482",
    ),
    "pure-powers-20": (
        {"ideal": {"dim": 3, "gens": [[20, 0, 0], [0, 20, 0], [0, 0, 20]]}},
        "4d12ed344bf321f038ef2e13b91d8c96e0982c55b580f640fd5b7ddc8e6605ce",
    ),
    "suite-6": (
        {"suite": {"count": 6}},
        "5f97c33398b44a07a94f1dda5e8b14c372cfbc84fc36733417e2ae416b675389",
    ),
}


@pytest.mark.parametrize("name", sorted(INTEGRALITY_PINS))
def test_integrality_report_bytes_pinned(tmp_path, capsys, name):
    spec, digest = INTEGRALITY_PINS[name]
    code, out = run_cli(capsys, ["integrality", "--seed", "3", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_integrality_in_d4(tmp_path, capsys):
    gens = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2], [1, 1, 1, 1]]
    spec = {"ideal": {"dim": 4, "gens": gens}}
    code, out = run_cli(capsys, ["integrality", "--input", write(tmp_path, "p.json", spec)])
    assert code == 0
    report = check_report(out)["report"]
    assert report["records"][0]["left"] == report["records"][0]["right"] == 16.0
    closure = [tuple(g) for g in report["context"]["closure_gens"]]
    assert len(closure) == 10
    assert covolume_from_gens(closure, 4) == covolume_from_gens([tuple(g) for g in gens], 4)


@pytest.mark.parametrize(
    "ideal, message",
    [
        (5, "ideal: a JSON object only, got 5"),
        ({"dim": 2, "gens": [3]}, "ideal generator: a JSON array only, got 3"),
        ({"dim": 2, "gens": 3}, "ideal gens: a JSON array only, got 3"),
    ],
)
def test_ill_typed_ideal_field_is_named(tmp_path, capsys, ideal, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"filtration": {"kind": "power", "ideal": ideal}}))
    code, out = run_cli(capsys, ["multiplicity", "--input", str(path)])
    assert code == 2
    assert check_report(out)["error"] == {"code": "SpecValidationError", "message": message}


def test_main_reuses_one_parser_without_carrying_state(tmp_path, capsys, monkeypatch):
    spec = dict(BHATTACHARYA, strategy={"kind": "numeric", "m_max": 16})
    path = write(tmp_path, "p.json", spec)
    calls = [
        ["mixed", "--input", path, "--budget", "8"],
        ["mixed", "--input", path],
        ["mixed", "--input", path, "--format", "text"],
        ["mixed", "--input", path, "--format", "json"],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    lone = [
        subprocess.run(
            [sys.executable, "-m", "filtmult.cli", *argv], capture_output=True, text=True, env=env, check=True
        ).stdout
        for argv in calls
    ]

    def no_rebuild():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    in_sequence = [run_cli(capsys, argv) for argv in calls]
    assert in_sequence == [(0, out) for out in lone]
    assert lone[0] != lone[1] and lone[2] != lone[3] == lone[1]
    with pytest.raises(SystemExit) as exc:
        main(["mixed", "--bogus"])
    assert exc.value.code == 2
