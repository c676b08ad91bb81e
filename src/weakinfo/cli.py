"""Command-line front end.

Subcommands: measure | value | sweep | trinomial.  Every run is driven by a
single JSON config file (schema below) plus a handful of flags:

    weakinfo <command> --config cfg.json [--out DIR] [--precision DIGITS]
                       [--tolerance TOL] [--threads N]

Config schema (version 1); unknown keys anywhere are rejected:

    {
      "schema_version": 1,
      "model": {
        "type": "binomial",                 # or "trinomial"
        "s": 20, "h": 0.09, "k": 0.019,     # trinomial: s, a, b, c
        "r": 0.032, "periods": 3, "v": 200
      },
      "utility": {"kind": "log"},           # {"kind": "power", "gamma": 0.5}
                                            # {"kind": "exponential", "alpha": 1}
      "anticipation": {"terminal": ["1/4", "1/2", "1/8", "1/8"]},
                                            # or {"preset": "uniform"},
                                            # trinomial also {"paths": [...]} /
                                            # {"per_period": [[...], ...]}
      "run": {"command": "measure"}         # optional; sweep: "v_grid": [...],
                                            # "presets": [...]; trinomial:
                                            # "t_mix": 0.5
    }

Numbers may be written as JSON numbers or as exact fraction strings
("1/4"); fraction inputs keep the whole measure pipeline in rational
arithmetic and fractions are emitted exactly in the outputs.  Every
command writes a machine-readable report.json plus JSON/CSV data files in
the output directory and prints a short report to stdout.  Outputs are
deterministic: identical configs byte-reproduce every numeric field
regardless of --threads.

Exit codes: 0 success, 2 config error, 3 solver non-convergence, 4 model
admissibility error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import complete, measures, trinomial
from .errors import AdmissibilityError, ConfigError, ConvergenceError, DomainError
from .markets import BinomialLattice, BinomialParams, TrinomialParams, _exact_dtype
from .utility import Utility

SCHEMA_VERSION = 1
DEFAULT_PRECISION = 7
COMMANDS = ("measure", "value", "sweep", "trinomial")
PRESET_NAMES = ("precise", "uniform", "conservative", "risk-neutral")


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def _parse_number(value, path: str):
    if isinstance(value, bool):
        raise ConfigError("%s: expected a number, got a boolean" % path)
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError("%s: expected a finite number, got %r" % (path, value))
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                "%s: %r is not a number or an exact fraction like '1/4'" % (path, value)
            ) from None
    raise ConfigError("%s: expected a number, got %s" % (path, type(value).__name__))


def _expect_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError("%s: expected an object" % path)
    return value


def _expect_keys(section: dict, path: str, required: tuple, optional: tuple = ()):
    missing = [k for k in required if k not in section]
    if missing:
        raise ConfigError("%s: missing required key(s) %s" % (path, ", ".join(missing)))
    unknown = [k for k in section if k not in required + optional]
    if unknown:
        raise ConfigError("%s: unknown key(s) %s" % (path, ", ".join(sorted(unknown))))


def _number_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError("%s: expected a non-empty list of numbers" % path)
    return [_parse_number(x, "%s[%d]" % (path, i)) for i, x in enumerate(value)]


def load_config(path: str | Path) -> dict:
    """Parse and schema-validate a config file; raises ConfigError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc)) from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "config is not valid JSON (line %d, column %d): %s"
            % (exc.lineno, exc.colno, exc.msg)
        ) from None
    return validate_config(raw)


def validate_config(raw) -> dict:
    cfg = _expect_dict(raw, "config")
    _expect_keys(cfg, "config", ("schema_version", "model", "utility"), ("anticipation", "run"))
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            "schema_version: expected %d, got %r" % (SCHEMA_VERSION, cfg["schema_version"])
        )
    out: dict = {"schema_version": SCHEMA_VERSION}

    model = _expect_dict(cfg["model"], "model")
    mtype = model.get("type")
    if mtype not in ("binomial", "trinomial"):
        raise ConfigError("model.type: expected 'binomial' or 'trinomial', got %r" % (mtype,))
    numbers = ("s", "h", "k", "r") if mtype == "binomial" else ("s", "a", "b", "c", "r")
    _expect_keys(model, "model", ("type", *numbers, "periods", "v"))
    out["model"] = {
        "type": mtype,
        **{key: _parse_number(model[key], "model.%s" % key) for key in (*numbers, "v")},
    }
    periods = model["periods"]
    if not isinstance(periods, int) or isinstance(periods, bool) or periods < 1:
        raise ConfigError("model.periods: expected an integer >= 1, got %r" % (periods,))
    out["model"]["periods"] = periods

    util = _expect_dict(cfg["utility"], "utility")
    kind = util.get("kind")
    if kind == "log":
        _expect_keys(util, "utility", ("kind",))
        out["utility"] = {"kind": "log"}
    elif kind in ("power", "exponential"):
        key = "gamma" if kind == "power" else "alpha"
        _expect_keys(util, "utility", ("kind", key))
        out["utility"] = {"kind": kind, key: float(_parse_number(util[key], "utility." + key))}
    else:
        raise ConfigError(
            "utility.kind: expected 'log', 'power' or 'exponential', got %r" % (kind,)
        )

    if "anticipation" in cfg:
        ant = _expect_dict(cfg["anticipation"], "anticipation")
        _expect_keys(ant, "anticipation", (), ("terminal", "preset", "paths", "per_period", "lift_t"))
        parsed: dict = {}
        if "terminal" in ant:
            parsed["terminal"] = _number_list(ant["terminal"], "anticipation.terminal")
        if "preset" in ant:
            if ant["preset"] not in PRESET_NAMES:
                raise ConfigError(
                    "anticipation.preset: expected one of %s" % ", ".join(PRESET_NAMES)
                )
            parsed["preset"] = ant["preset"]
        if "paths" in ant:
            parsed["paths"] = _number_list(ant["paths"], "anticipation.paths")
        if "per_period" in ant:
            rows = ant["per_period"]
            if not isinstance(rows, list) or not rows:
                raise ConfigError("anticipation.per_period: expected a list of triples")
            parsed["per_period"] = [
                _number_list(row, "anticipation.per_period[%d]" % i) for i, row in enumerate(rows)
            ]
        if "lift_t" in ant:
            parsed["lift_t"] = float(_parse_number(ant["lift_t"], "anticipation.lift_t"))
        if len([k for k in parsed if k in ("terminal", "preset", "paths", "per_period")]) != 1:
            raise ConfigError(
                "anticipation: give exactly one of terminal / preset / paths / per_period"
            )
        out["anticipation"] = parsed

    if "run" in cfg:
        run = _expect_dict(cfg["run"], "run")
        _expect_keys(run, "run", (), ("command", "v_grid", "presets", "t_mix", "tolerance"))
        parsed_run: dict = {}
        if "command" in run:
            if run["command"] not in COMMANDS:
                raise ConfigError("run.command: expected one of %s" % ", ".join(COMMANDS))
            parsed_run["command"] = run["command"]
        if "v_grid" in run:
            grid = _number_list(run["v_grid"], "run.v_grid")
            parsed_run["v_grid"] = [float(x) for x in grid]
        if "presets" in run:
            names = run["presets"]
            if not isinstance(names, list) or not names:
                raise ConfigError("run.presets: expected a non-empty list of preset names")
            for name in names:
                if name not in PRESET_NAMES:
                    raise ConfigError("run.presets: unknown preset %r" % (name,))
            parsed_run["presets"] = list(names)
        if "t_mix" in run:
            parsed_run["t_mix"] = float(_parse_number(run["t_mix"], "run.t_mix"))
        if "tolerance" in run:
            parsed_run["tolerance"] = float(_parse_number(run["tolerance"], "run.tolerance"))
        out["run"] = parsed_run

    return out


def config_to_jsonable(cfg) -> object:
    """Round-trippable echo: Fractions become their exact string form."""
    if isinstance(cfg, dict):
        return {k: config_to_jsonable(v) for k, v in cfg.items()}
    if isinstance(cfg, list):
        return [config_to_jsonable(v) for v in cfg]
    if isinstance(cfg, Fraction):
        return str(cfg)
    return cfg


# ---------------------------------------------------------------------------
# model / utility / anticipation assembly
# ---------------------------------------------------------------------------

def _build_params(cfg: dict):
    model = cfg["model"]
    if model["type"] == "binomial":
        return BinomialParams(
            s=model["s"], h=model["h"], k=model["k"], r=model["r"],
            n_periods=model["periods"], v=model["v"],
        )
    return TrinomialParams(
        s=model["s"], a=model["a"], b=model["b"], c=model["c"], r=model["r"],
        n_periods=model["periods"], v=model["v"],
    )


def _build_utility(cfg: dict) -> Utility:
    util = cfg["utility"]
    try:
        return Utility(util["kind"], gamma=util.get("gamma"), alpha=util.get("alpha"))
    except ValueError as exc:
        key = "gamma" if util["kind"] == "power" else "alpha"
        raise ConfigError("utility.%s: %s" % (key, exc)) from None


def _binomial_anticipation(cfg: dict, params: BinomialParams, exact_tree=None):
    ant = cfg.get("anticipation")
    if ant is None:
        raise ConfigError("anticipation: section is required for this command")
    if "terminal" in ant:
        weights = ant["terminal"]
        if len(weights) != params.n_periods + 1:
            raise ConfigError(
                "anticipation.terminal: expected %d entries, got %d"
                % (params.n_periods + 1, len(weights))
            )
        try:
            return measures.Anticipation.of(tuple(weights))
        except ValueError as exc:
            raise ConfigError("anticipation.terminal: %s" % exc) from None
    if "preset" not in ant:
        raise ConfigError("anticipation: binomial commands take terminal or preset")
    name = ant["preset"]
    if name == "risk-neutral" and exact_tree is not None:
        return measures.Anticipation.of(tuple(exact_tree.terminal_distribution()))
    presets = complete.anticipation_presets(params)
    if name not in presets:
        raise ConfigError("anticipation.preset: %r unavailable for this model" % name)
    return measures.Anticipation.of(presets[name])


def _trinomial_anticipation(cfg: dict, params: TrinomialParams) -> np.ndarray:
    ant = cfg.get("anticipation")
    if ant is None:
        raise ConfigError("anticipation: section is required for this command")
    try:
        if "paths" in ant:
            return trinomial.coerce_path_anticipation(params, ant["paths"])
        if "per_period" in ant:
            return trinomial.product_path_anticipation(params, ant["per_period"])
        if "terminal" in ant:
            return trinomial.lift_terminal_anticipation(
                params, ant["terminal"], t=ant.get("lift_t", 0.5)
            )
    except (ValueError, DomainError) as exc:
        raise ConfigError("anticipation: %s" % exc) from None
    raise ConfigError("anticipation: trinomial runs take paths, per_period or terminal")


# ---------------------------------------------------------------------------
# formatting and output plumbing
# ---------------------------------------------------------------------------

# floats first: most cells are floats, and Fraction's isinstance check is slow
_NUMBERS = (float, int, np.floating, np.integer, Fraction)


def format_number(x, digits: int):
    if not isinstance(x, float):
        if x is None or isinstance(x, bool):
            return x
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, (int, np.integer)):
            return int(x)
    xf = float(x)
    if digits >= 17:
        return repr(xf)
    return float("%.*g" % (digits, xf))


def _format_tree(obj, digits: int):
    if isinstance(obj, dict):
        return {k: _format_tree(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_format_tree(v, digits) for v in obj]
    if isinstance(obj, _NUMBERS):
        return format_number(obj, digits)
    return obj


# json.dumps spells these cells the same way, only slower
_JSON_TOKEN = {str: encode_basestring_ascii, int: int.__repr__}


def _spell(cells: list) -> tuple[list, list]:
    """Each formatted cell as json.dumps writes it, and as its CSV field."""
    if set(map(type, cells)) <= {float} and all(map(math.isfinite, cells)):
        text = list(map(float.__repr__, cells))
        return text, text
    tokens = [_JSON_TOKEN.get(type(x), json.dumps)(x) for x in cells]
    return tokens, ["" if x is None else x for x in cells]


def _write_table(out_dir: Path, name: str, columns: dict, digits: int):
    """Write name.json and name.csv, formatting every number once.

    columns maps each CSV header, in order, to its cells (at least one
    column).  name.json is json.dumps(row dicts, indent=2, sort_keys=True)
    built from a template; name.csv holds the same cells, None left empty.
    """
    spelled = {
        col: _spell([format_number(x, digits) if isinstance(x, _NUMBERS) else x for x in values])
        for col, values in columns.items()
    }
    keys = sorted(spelled)
    template = "  {\n%s\n  }" % ",\n".join(
        "    %s: %%s" % encode_basestring_ascii(key).replace("%", "%%") for key in keys
    )
    rows = [template % row for row in zip(*(spelled[key][0] for key in keys))]
    (out_dir / ("%s.json" % name)).write_text("[\n%s\n]\n" % ",\n".join(rows) if rows else "[]\n")
    with (out_dir / ("%s.csv" % name)).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(spelled)
        writer.writerows(zip(*(fields for _, fields in spelled.values())))


class RunContext:
    def __init__(self, args, cfg):
        self.args = args
        self.cfg = cfg
        self.out_dir = Path(args.out)
        self.digits = args.precision
        self.started = time.perf_counter()

    def tolerance(self, default: float) -> float:
        if self.args.tolerance is not None:
            return self.args.tolerance
        return self.cfg.get("run", {}).get("tolerance", default)

    def finish(self, command: str, results: dict, files: dict):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for name, columns in files.items():
            _write_table(self.out_dir, name, columns, self.digits)
        report = {
            "command": command,
            "config": config_to_jsonable(self.cfg),
            "results": _format_tree(results, self.digits),
            "files": sorted("%s.json" % n for n in files) + sorted("%s.csv" % n for n in files),
            "timings": {"seconds": time.perf_counter() - self.started},
        }
        (self.out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        self._print_report(command, results)
        return 0

    def _print_report(self, command: str, results: dict):
        print("weakinfo %s" % command)
        for key, value in results.items():
            if isinstance(value, (dict, list)):
                continue
            print("  %s = %s" % (key, _format_tree(value, self.digits)))
        print("  outputs in %s" % self.out_dir)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_measure(ctx: RunContext) -> int:
    cfg = ctx.cfg
    if cfg["model"]["type"] != "binomial":
        raise ConfigError("model.type: the measure command needs a binomial model")
    params = _build_params(cfg)
    base = measures.risk_neutral_binomial(params)
    nu = _binomial_anticipation(cfg, params, exact_tree=base)
    minimal = measures.minimal_measure(base, nu)
    lattice = BinomialLattice(params)
    trees = (("risk_neutral", base), ("minimal", minimal))
    nodes = [(n, i) for n in range(params.n_periods) for i in range(n + 1)]
    probs = [tree.transition(n, i) for _, tree in trees for n, i in nodes]
    results = {
        "model": "binomial",
        "terminal_distribution": list(minimal.terminal_distribution()),
        "anticipation": list(nu.weights),
        "root_up_probability": minimal.up[0][0],
    }
    return ctx.finish("measure", results, {"measure_tree": {
        "measure": [name for name, _ in trees for _ in nodes],
        "time": [n for n, _ in nodes] * len(trees),
        "state_index": [i for _, i in nodes] * len(trees),
        "price": [lattice.price(n, i) for n, i in nodes] * len(trees),
        "p_up": [up for up, _ in probs],
        "p_down": [down for _, down in probs],
    }})


def cmd_value(ctx: RunContext) -> int:
    cfg = ctx.cfg
    if cfg["model"]["type"] != "binomial":
        raise ConfigError("model.type: the value command needs a binomial model")
    params = _build_params(cfg)
    utility = _build_utility(cfg)
    nu = _binomial_anticipation(cfg, params)
    solution = complete.solve(params, utility, nu)
    lattice = BinomialLattice(params)
    last = params.n_periods
    p_up, p_down = measures.risk_neutral_binomial(params).transition(0, 0)
    nodes = [(n, i) for n in range(last + 1) for i in range(n + 1)]
    results = {
        "utility": utility.describe(),
        "lambda": solution.lam,
        "value": solution.value,
        "extra_value": solution.extra_value,
        "proportion": solution.proportion if solution.proportion is not None else "undefined",
        "delta_0": float(solution.deltas[0][0]),
        "budget_residual": solution.budget_residual,
        "martingale_gap": solution.martingale_gap(),
    }
    return ctx.finish("value", results, {"wealth_tree": {
        "time": [n for n, _ in nodes],
        "state_index": [i for _, i in nodes],
        "price": [lattice.price(n, i) for n, i in nodes],
        "p_up": [p_up if n < last else None for n, _ in nodes],
        "p_down": [p_down if n < last else None for n, _ in nodes],
        "wealth": np.concatenate(solution.wealth).tolist(),
        "delta": np.concatenate(solution.deltas).tolist() + [None] * (last + 1),
    }})


def cmd_sweep(ctx: RunContext) -> int:
    cfg = ctx.cfg
    if cfg["model"]["type"] != "binomial":
        raise ConfigError("model.type: the sweep command needs a binomial model")
    run = cfg.get("run", {})
    if "v_grid" not in run:
        raise ConfigError("run.v_grid: the sweep command needs a wealth grid")
    params = _build_params(cfg)
    utility = _build_utility(cfg)
    available = complete.anticipation_presets(params)
    if "anticipation" in cfg:
        nu = _binomial_anticipation(cfg, params)
        selections = {"custom": tuple(float(x) for x in nu.weights)}
    else:
        names = run.get("presets", [n for n in PRESET_NAMES if n in available])
        missing = [n for n in names if n not in available]
        if missing:
            raise ConfigError("run.presets: %s unavailable for this model" % ", ".join(missing))
        selections = {name: available[name] for name in names}
    rows = complete.sweep(params, utility, selections, run["v_grid"], threads=ctx.args.threads)
    results = {
        "utility": utility.describe(),
        "anticipations": sorted(selections),
        "rows": len(rows),
        "failed_rows": sum(1 for r in rows if r.error),
    }
    fields = ("anticipation", "v", "value", "extra_value", "proportion", "error")
    return ctx.finish("sweep", results, {
        "curves": {field: [getattr(r, field) for r in rows] for field in fields},
    })


def cmd_trinomial(ctx: RunContext) -> int:
    cfg = ctx.cfg
    if cfg["model"]["type"] != "trinomial":
        raise ConfigError("model.type: the trinomial command needs a trinomial model")
    params = _build_params(cfg)
    utility = _build_utility(cfg)
    nu = _trinomial_anticipation(cfg, params)
    tol = ctx.tolerance(1e-10)
    solution = trinomial.solve_lambda_system(params, utility, nu, tol=tol)
    t_mix = cfg.get("run", {}).get("t_mix", 0.5)
    depths = range(params.n_periods)
    files = {"trinomial_paths": {
        "path": trinomial.path_strings(params.n_periods),
        "nu": np.asarray(nu, dtype=float).tolist(),
        "terminal_wealth": np.asarray(solution.terminal_wealth, dtype=float).tolist(),
    }}
    try:
        wealth, deltas, report = trinomial.trinomial_wealth_and_delta(
            params, solution.terminal_wealth, t=t_mix
        )
    except trinomial.ReplicationError as exc:
        replic = {"ok": False, "detail": str(exc)}
    except ValueError as exc:
        raise ConfigError("run.t_mix: %s" % exc) from None
    else:
        replic = {"ok": True, "worst_node": report.worst_node, "worst_gap": report.worst_gap}
        prices = trinomial._node_prices(params, _exact_dtype((params.s, *params.multipliers)))
        files["trinomial_tree"] = {
            "node": [p or "<root>" for d in depths for p in trinomial.path_strings(d)],
            "time": [d for d in depths for _ in range(3**d)],
            "price": np.concatenate(prices[:-1]).tolist(),
            "wealth": np.concatenate([wealth.levels[d] for d in depths]).tolist(),
            "delta": np.concatenate([deltas.levels[d] for d in depths]).tolist(),
        }

    results = {
        "utility": utility.describe(),
        "lambda": [float(x) for x in solution.lam],
        "max_budget_residual": solution.max_residual,
        "residual_history": solution.residual_history,
        "iterations": solution.iterations,
        "start": solution.start,
        "value": solution.value,
        "replicability": replic,
        "interior_t": t_mix,
    }
    return ctx.finish("trinomial", results, files)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakinfo",
        description="Value of terminal-distribution information in discrete markets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("measure", "emit the risk-neutral and minimal measure trees"),
        ("value", "solve the complete-market problem and emit wealth/holdings trees"),
        ("sweep", "value / extra value / proportion curves over a wealth grid"),
        ("trinomial", "solve the incomplete-market multiplier system"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument(
            "--precision", type=int, default=DEFAULT_PRECISION,
            help="significant digits in outputs (17 = full)",
        )
        p.add_argument("--tolerance", type=float, default=None, help="iterative solver tolerance")
        p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    return parser


_DISPATCH = {
    "measure": cmd_measure,
    "value": cmd_value,
    "sweep": cmd_sweep,
    "trinomial": cmd_trinomial,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        declared = cfg.get("run", {}).get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(
                "run.command: config declares %r but the %r subcommand was invoked"
                % (declared, args.command)
            )
        if args.precision < 1:
            raise ConfigError("--precision must be at least 1")
        return _DISPATCH[args.command](RunContext(args, cfg))
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        if getattr(exc, "history", None):
            print("residual history: %s" % exc.history, file=sys.stderr)
        return 3
    except (AdmissibilityError, DomainError) as exc:
        print("model error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
