from __future__ import annotations

import csv
import json
import math
import tempfile
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import write_table_loop
from weakinfo import cli
from weakinfo.cli import main, validate_config

BINOMIAL_EXACT = {
    "type": "binomial", "s": "20", "h": "9/100", "k": "19/1000", "r": "4/125",
    "periods": 3, "v": "200",
}
BINOMIAL_FLOAT = {
    "type": "binomial", "s": 20, "h": 0.09, "k": 0.019, "r": 0.032,
    "periods": 3, "v": 200,
}


def write_config(tmp_path: Path, cfg: dict, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def test_measure_emits_exact_golden_fractions(tmp_path):
    cfg = {
        "schema_version": 1,
        "model": BINOMIAL_EXACT,
        "utility": {"kind": "log"},
        "anticipation": {"terminal": ["1/4", "1/2", "1/8", "1/8"]},
    }
    out = tmp_path / "out"
    code = main(["measure", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    records = json.loads((out / "measure_tree.json").read_text())
    minimal = {
        (r["time"], r["state_index"]): (F(str(r["p_up"])), F(str(r["p_down"])))
        for r in records if r["measure"] == "minimal"
    }
    assert minimal[(0, 0)] == (F(15, 24), F(9, 24))
    assert minimal[(1, 0)] == (F(2, 3), F(1, 3))
    assert minimal[(1, 1)] == (F(5, 9), F(4, 9))
    assert minimal[(2, 0)] == (F(3, 5), F(2, 5))
    assert minimal[(2, 1)] == (F(4, 5), F(1, 5))
    assert minimal[(2, 2)] == (F(1, 4), F(3, 4))
    assert (out / "measure_tree.csv").exists()
    assert (out / "report.json").exists()


def test_measure_risk_neutral_preset_reproduces_base_tree(tmp_path):
    cfg = {
        "schema_version": 1,
        "model": BINOMIAL_EXACT,
        "utility": {"kind": "log"},
        "anticipation": {"preset": "risk-neutral"},
    }
    out = tmp_path / "out"
    assert main(["measure", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    records = json.loads((out / "measure_tree.json").read_text())
    by_measure: dict[str, dict] = {"risk_neutral": {}, "minimal": {}}
    for r in records:
        by_measure[r["measure"]][(r["time"], r["state_index"])] = F(str(r["p_up"]))
    assert by_measure["risk_neutral"] == by_measure["minimal"]


def test_measure_rejects_unnormalized_anticipation(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "model": BINOMIAL_FLOAT,
        "utility": {"kind": "log"},
        "anticipation": {"terminal": [0.4, 0.3, 0.1, 0.1]},
    }
    code = main(["measure", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "sum to 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config validation surface
# ---------------------------------------------------------------------------

def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "model": {**BINOMIAL_FLOAT, "drift": 0.1},
        "utility": {"kind": "log"},
        "anticipation": {"preset": "uniform"},
    }
    code = main(["value", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "drift" in capsys.readouterr().err


def test_declared_command_must_match_subcommand(tmp_path):
    cfg = {
        "schema_version": 1,
        "model": BINOMIAL_FLOAT,
        "utility": {"kind": "log"},
        "anticipation": {"preset": "uniform"},
        "run": {"command": "sweep"},
    }
    assert main(["value", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2


def test_bad_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["value", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "line" in capsys.readouterr().err


def test_missing_file_is_a_config_error(tmp_path):
    assert main(["value", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


def test_config_echo_round_trips(tmp_path):
    cfg = {
        "schema_version": 1,
        "model": BINOMIAL_EXACT,
        "utility": {"kind": "log"},
        "anticipation": {"terminal": ["1/4", "1/2", "1/8", "1/8"]},
        "run": {"command": "measure"},
    }
    out = tmp_path / "out"
    assert main(["measure", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert validate_config(report["config"]) == validate_config(cfg)


@pytest.mark.parametrize("command, section, entry, where", [
    ("value", "model", {"s": math.inf}, "model.s"),
    ("value", "model", {"v": math.nan}, "model.v"),
    ("value", "utility", {"kind": "power", "gamma": 1}, "utility.gamma"),
    ("value", "utility", {"kind": "exponential", "alpha": 0}, "utility.alpha"),
    ("trinomial", "run", {"t_mix": 1.0}, "run.t_mix"),
])
def test_bad_values_are_config_errors(tmp_path, capsys, command, section, entry, where):
    # each used to end in a traceback (exit 1) or in inf prices (exit 0)
    cfg = {
        "schema_version": 1,
        "model": BINOMIAL_FLOAT if command == "value" else {**TRI_MODEL, "periods": 2},
        "utility": {"kind": "log"},
        "anticipation": {"preset": "uniform"} if command == "value"
        else {"per_period": [[0.3, 0.3, 0.4]] * 2},
    }
    cfg[section] = {**cfg.get(section, {}), **entry}
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: %s: " % where)
    assert not out.exists()


# ---------------------------------------------------------------------------
# output tables
# ---------------------------------------------------------------------------

CELLS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324, 1e308, 1.5e-7]),
    st.floats().map(np.float64),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.fractions(),
    st.none(),
    st.booleans(),
    st.text(),
    st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\rlf\r\n", "ünïcödé €", "", "%s"]),
)


@st.composite
def tables(draw):
    """Columns of one kind, as the commands write them, or of mixed kinds."""
    names = draw(st.lists(st.text(min_size=1), min_size=1, max_size=4, unique=True))
    n_rows = draw(st.integers(0, 6))
    kinds = st.sampled_from([CELLS, st.floats(), st.floats(allow_nan=False, allow_infinity=False)])
    return {
        name: draw(st.lists(draw(kinds), min_size=n_rows, max_size=n_rows)) for name in names
    }


@settings(max_examples=300, deadline=None)
@given(columns=tables(), digits=st.integers(1, 17))
@example(columns={"empty": []}, digits=7)
def test_table_writer_matches_the_row_dict_oracle(columns, digits):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got"), Path(tmp, "want")
        got.mkdir()
        want.mkdir()
        cli._write_table(got, "t", columns, digits)
        write_table_loop(want, "t", columns, digits)
        for name in ("t.json", "t.csv"):
            assert (got / name).read_bytes() == (want / name).read_bytes()


# ---------------------------------------------------------------------------
# value
# ---------------------------------------------------------------------------

def _value_cfg(anticipation, utility=None, model=None):
    return {
        "schema_version": 1,
        "model": model or BINOMIAL_FLOAT,
        "utility": utility or {"kind": "log"},
        "anticipation": anticipation,
    }


def test_value_log_uniform_fixture(tmp_path):
    out = tmp_path / "out"
    cfg = _value_cfg({"terminal": [0.25, 0.25, 0.25, 0.25]})
    assert main(["value", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["delta_0"] == pytest.approx(12.21095, abs=1e-4)
    assert report["results"]["lambda"] == pytest.approx(0.005, rel=1e-6)
    nodes = json.loads((out / "wealth_tree.json").read_text())
    root = [r for r in nodes if r["time"] == 0][0]
    assert root["wealth"] == pytest.approx(200.0, rel=1e-6)
    assert root["delta"] == pytest.approx(12.21095, abs=1e-3)
    terminal = [r for r in nodes if r["time"] == 3]
    assert len(terminal) == 4 and all(r["delta"] is None for r in terminal)


def test_value_optimistic_and_power_fixtures(tmp_path):
    # solver-verified holdings for the optimistic and power examples
    out1 = tmp_path / "o1"
    cfg = _value_cfg({"terminal": [0.2, 0.4, 0.3, 0.1]})
    assert main(["value", "--config", write_config(tmp_path, cfg, "a.json"), "--out", str(out1)]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    assert r1["results"]["delta_0"] == pytest.approx(37.56322, abs=1e-3)

    out2 = tmp_path / "o2"
    cfg = _value_cfg({"terminal": [0.25] * 4}, utility={"kind": "power", "gamma": 0.5})
    assert main(["value", "--config", write_config(tmp_path, cfg, "b.json"), "--out", str(out2)]) == 0
    r2 = json.loads((out2 / "report.json").read_text())
    assert r2["results"]["delta_0"] == pytest.approx(40.50338, abs=1e-3)


def test_value_accepts_exact_fraction_inputs(tmp_path):
    # rational market coefficients flow through the float solver unharmed
    out = tmp_path / "out"
    cfg = _value_cfg({"terminal": ["1/4", "1/4", "1/4", "1/4"]}, model=BINOMIAL_EXACT)
    assert main(["value", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["delta_0"] == pytest.approx(12.21095, abs=1e-3)
    nodes = json.loads((out / "wealth_tree.json").read_text())
    root = [r for r in nodes if r["time"] == 0][0]
    assert F(str(root["price"])) == F(20)


def test_value_admissibility_error_exit_code(tmp_path, capsys):
    model = {**BINOMIAL_FLOAT, "h": 0.02}  # h < r: arbitrage
    cfg = _value_cfg({"preset": "uniform"}, model=model)
    code = main(["value", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "h > r" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_cfg(utility):
    return {
        "schema_version": 1,
        "model": {"type": "binomial", "s": 20, "h": 0.08, "k": 0.04, "r": 0.03,
                  "periods": 5, "v": 200},
        "utility": utility,
        "run": {
            "command": "sweep",
            "presets": ["precise", "uniform", "conservative", "risk-neutral"],
            "v_grid": [float(x) for x in range(50, 1001, 50)],
        },
    }


def test_sweep_curves_properties(tmp_path):
    out = tmp_path / "out"
    cfg = _sweep_cfg({"kind": "log"})
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "curves.csv")
    assert len(rows) == 80
    by_name: dict[str, list] = {}
    for row in rows:
        assert row["error"] == ""
        by_name.setdefault(row["anticipation"], []).append(row)
    rn_extras = [float(r["extra_value"]) for r in by_name["risk-neutral"]]
    assert all(abs(x) <= 1e-10 for x in rn_extras)
    for name in ("precise", "uniform", "conservative"):
        extras = [float(r["extra_value"]) for r in by_name[name]]
        assert max(extras) - min(extras) <= 1e-9
        props = [float(r["proportion"]) for r in by_name[name]]
        assert all(a > b for a, b in zip(props, props[1:]))


def test_sweep_power_proportion_constant(tmp_path):
    out = tmp_path / "out"
    cfg = _sweep_cfg({"kind": "power", "gamma": 0.5})
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "curves.csv")
    by_name: dict[str, list] = {}
    for row in rows:
        by_name.setdefault(row["anticipation"], []).append(row)
    for name, chunk in by_name.items():
        props = [float(r["proportion"]) for r in chunk]
        assert max(props) - min(props) <= 1e-9


def test_sweep_requires_grid(tmp_path):
    cfg = {
        "schema_version": 1,
        "model": BINOMIAL_FLOAT,
        "utility": {"kind": "log"},
        "run": {"command": "sweep"},
    }
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2


def test_sweep_tags_a_row_whose_value_overflows(tmp_path):
    # v^g overflows a double at v=1e-300, gamma=-2.5: that row is rejected
    # like any other, and the run completes
    cfg = {
        "schema_version": 1,
        "model": BINOMIAL_FLOAT,
        "utility": {"kind": "power", "gamma": -2.5},
        "run": {"command": "sweep", "presets": ["uniform"], "v_grid": [100, 1e-300]},
    }
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "curves.csv")
    assert rows[0]["error"] == "" and rows[0]["value"] != ""
    assert "v=1e-300" in rows[1]["error"] and rows[1]["value"] == ""
    assert json.loads((out / "report.json").read_text())["results"]["failed_rows"] == 1


def test_sweep_deterministic_across_runs_and_threads(tmp_path):
    cfg = _sweep_cfg({"kind": "log"})
    path = write_config(tmp_path, cfg)
    outs = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
        out = tmp_path / name
        assert main(["sweep", "--config", path, "--out", str(out), "--threads", threads]) == 0
        outs.append(out)
    ref_json = (outs[0] / "curves.json").read_bytes()
    ref_csv = (outs[0] / "curves.csv").read_bytes()
    for out in outs[1:]:
        assert (out / "curves.json").read_bytes() == ref_json
        assert (out / "curves.csv").read_bytes() == ref_csv
    # report matches too, once wall-clock timing is set aside
    reports = []
    for out in outs:
        rep = json.loads((out / "report.json").read_text())
        rep.pop("timings")
        reports.append(rep)
    assert reports[0] == reports[1] == reports[2]


# ---------------------------------------------------------------------------
# trinomial
# ---------------------------------------------------------------------------

TRI_MODEL = {"type": "trinomial", "s": 10, "a": 1.2, "b": 1.05, "c": 0.9, "r": 0.0,
             "periods": 1, "v": 100}


def test_trinomial_one_period_log(tmp_path):
    cfg = {
        "schema_version": 1,
        "model": TRI_MODEL,
        "utility": {"kind": "log"},
        "anticipation": {"paths": [0.5, 0.3, 0.2]},
    }
    out = tmp_path / "out"
    assert main(["trinomial", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["max_budget_residual"] <= 1e-8
    assert report["results"]["replicability"]["ok"] is True
    assert len(report["results"]["lambda"]) == 2
    assert report["results"]["start"] == "uniform"
    paths = json.loads((out / "trinomial_paths.json").read_text())
    assert [r["path"] for r in paths] == ["u", "m", "d"]
    tree = json.loads((out / "trinomial_tree.json").read_text())
    assert tree[0]["node"] == "<root>"
    assert tree[0]["wealth"] == pytest.approx(100.0, rel=1e-6)


def test_trinomial_constant_fixture_zero_delta(tmp_path):
    # anticipation proportional to the mean product measure: flat optimum
    cfg = {
        "schema_version": 1,
        "model": {**TRI_MODEL, "periods": 2},
        "utility": {"kind": "log"},
        "anticipation": {"per_period": [[1 / 6, 1 / 3, 1 / 2], [1 / 6, 1 / 3, 1 / 2]]},
    }
    out = tmp_path / "out"
    assert main(["trinomial", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["start"] == "product"
    tree = json.loads((out / "trinomial_tree.json").read_text())
    assert all(abs(r["delta"]) < 1e-7 for r in tree)


def test_trinomial_cap_refused(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "model": {**TRI_MODEL, "periods": 13},
        "utility": {"kind": "log"},
        "anticipation": {"per_period": [[0.3, 0.3, 0.4]] * 13},
    }
    code = main(["trinomial", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "capped" in capsys.readouterr().err


def test_trinomial_unreachable_tolerance_exits_three(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "model": TRI_MODEL,
        "utility": {"kind": "log"},
        "anticipation": {"paths": [0.5, 0.3, 0.2]},
    }
    code = main([
        "trinomial", "--config", write_config(tmp_path, cfg),
        "--out", str(tmp_path / "o"), "--tolerance", "1e-300",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "residual history" in err


def test_precision_flag_controls_digits(tmp_path):
    cfg = _value_cfg({"terminal": [0.25] * 4})
    path = write_config(tmp_path, cfg)
    out7 = tmp_path / "p7"
    out17 = tmp_path / "p17"
    assert main(["value", "--config", path, "--out", str(out7)]) == 0
    assert main(["value", "--config", path, "--out", str(out17), "--precision", "17"]) == 0
    r7 = json.loads((out7 / "report.json").read_text())["results"]["value"]
    r17 = json.loads((out17 / "report.json").read_text())["results"]["value"]
    assert len(repr(r17)) > len(repr(r7))


# ---------------------------------------------------------------------------
# golden outputs of the shipped configs
# ---------------------------------------------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_outputs_match_their_goldens(config, tmp_path):
    # every data file byte for byte, and report.json once its wall-clock
    # timings are removed, at --precision 7
    command = json.loads(config.read_text())["run"]["command"]
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), "--precision", "7"]) == 0
    report = json.loads((out / "report.json").read_text())
    report.pop("timings")
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    golden = GOLDEN / config.stem
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
    for path in sorted(golden.iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
