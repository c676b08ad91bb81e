"""The four benchmark workloads: seeded inputs, timed steps and checks.

Each workload is a closed loop over *cycles*.  A cycle is a fixed list of
instance classes (size, kind, utility family); the seed draws everything
else (market parameters, anticipations, risk aversion).  Every cycle holds
each class exactly once, so two seeds give runs of the same composition and
the latency percentiles land inside one class instead of jumping between
classes: cycle lists either have an odd length or repeat the class on
either side of the median and the 90th percentile.

`run(inst)` makes only library calls and is what gets timed.  Library
verification calls (replays, budget residuals, no-arbitrage validation)
stay inside it, because users run them to trust an answer.  `check(inst,
out)` is the benchmark's own correctness gate and runs untimed.

Library calls go through the layer modules (`complete.solve`, not the
`weakinfo.solve` re-export) so that the traced run sees them.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import weakinfo
from weakinfo import cli, complete, markets, measures, trinomial
from weakinfo.utility import Utility

FAMILIES = ("log", "power", "exponential")
REL_TOL = 1e-9  # agreement demanded of independent float routes


class CheckFailure(Exception):
    """An instance produced a wrong or unverifiable answer."""


class InstanceTimeout(BaseException):
    """An instance overran its time limit.

    A BaseException, so that library code catching `Exception` (the sweep
    tags failed rows that way) cannot swallow it.
    """


@contextmanager
def time_limit(seconds: float):
    """Raise InstanceTimeout in the main thread after `seconds`."""
    def on_alarm(signum, frame):
        raise InstanceTimeout("time limit of %gs exceeded" % seconds)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def wait_child(proc: subprocess.Popen, timeout: float) -> tuple[int, int]:
    """Wait for a child; return its exit code and peak RSS in KiB.

    os.wait4 reports the child's own resource usage; a child that overruns
    `timeout` is killed and reaped before InstanceTimeout propagates.
    """
    try:
        with time_limit(timeout):
            _, status, usage = os.wait4(proc.pid, 0)
    except InstanceTimeout:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


@dataclass
class Instance:
    workload: str
    cycle: int
    label: str
    inputs: dict


@dataclass
class Outcome:
    result: object
    stats: dict = field(default_factory=dict)


def instance_rng(seed: int, workload_id: int, stream: int, index: int):
    """Independent generator per (seed, workload, stream, cycle)."""
    return np.random.default_rng([seed, workload_id, stream, index])


def _close(a, b, rel=REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailure(message)


def exponential_alpha(rng, v: float, rho_n: float) -> float:
    # alpha * v * rho^N is drawn in [0.1, 5], a realistic risk-aversion
    # scale.  The bracket solver's underflow hang needs that product in the
    # hundreds or more; this range stays clear of it on purpose, and any
    # instance in it that still fails is a program defect.
    return float(rng.uniform(0.1, 5.0)) / (v * rho_n)


def draw_utility(rng, family: str, v: float, rho_n: float) -> Utility:
    if family == "log":
        return Utility.log()
    if family == "power":
        if rng.random() < 0.5:
            return Utility.power(float(rng.uniform(-2.0, -0.2)))
        return Utility.power(float(rng.uniform(0.2, 0.7)))
    return Utility.exponential(exponential_alpha(rng, v, rho_n))


def _dirichlet(rng, size: int) -> np.ndarray:
    w = rng.dirichlet(np.full(size, 2.0))
    return w / w.sum()


def risk_neutral_terminal(h: float, k: float, r: float, n: int) -> np.ndarray:
    p = (r + k) / (h + k)
    return np.array([math.comb(n, i) * p ** (n - i) * (1 - p) ** i for i in range(n + 1)])


# ---------------------------------------------------------------------------
# binomial-verify: measures and the binomial half of complete
# ---------------------------------------------------------------------------

class BinomialVerify:
    """Stresses measures and the binomial half of complete.

    The float replays set throughput and p90; the exact instances sit near
    p50, so a change that helps floats but slows Fraction arithmetic shows.
    """

    name = "binomial-verify"
    # Two thirds float replays (N 8..14), one third exact instances (N 14..20).
    # Seven classes cost less than float N=11 and seven more, and it repeats,
    # so that p50 falls inside it; N=14 repeats so that p90 falls inside it.
    CYCLE = (
        ("float", 8), ("float", 9), ("float", 10), ("float", 11), ("float", 11),
        ("float", 11), ("float", 12), ("float", 13), ("float", 13), ("float", 14),
        ("float", 14), ("float", 14),
        ("exact", 14), ("exact", 16), ("exact", 17), ("exact", 18), ("exact", 20),
    )
    WARMUP = (("float", 8),)
    TRACE_CYCLES = 3

    def __init__(self, workload_id: int, root: Path, work: Path, nproc: int):
        self.id = workload_id

    def instances(self, seed, cycle, classes=None):
        rng = instance_rng(seed, self.id, 0 if classes is None else 1, cycle)
        out = []
        for i, (kind, n) in enumerate(classes or self.CYCLE):
            if kind == "float":
                family = FAMILIES[(i + cycle) % 3]
                out.append(self._float(rng, cycle, n, family))
            else:
                out.append(self._exact(rng, cycle, n))
        return out

    def _float(self, rng, cycle, n, family):
        r = float(rng.uniform(0.0, 0.04))
        h = r + float(rng.uniform(0.02, 0.15))
        k = float(rng.uniform(0.01, 0.15))
        v = float(rng.uniform(50.0, 500.0))
        params = markets.BinomialParams(
            s=float(rng.uniform(5.0, 50.0)), h=h, k=k, r=r, n_periods=n, v=v
        )
        utility = draw_utility(rng, family, v, (1 + r) ** n)
        nu = tuple(_dirichlet(rng, n + 1).tolist())
        return Instance(self.name, cycle, "float N=%d %s" % (n, utility.describe()),
                        {"kind": "float", "params": params, "utility": utility, "nu": nu})

    def _exact(self, rng, cycle, n):
        r = Fraction(int(rng.integers(0, 40)), 1000)
        params = markets.BinomialParams(
            s=Fraction(int(rng.integers(5, 50))),
            h=r + Fraction(int(rng.integers(20, 150)), 1000),
            k=Fraction(int(rng.integers(10, 150)), 1000),
            r=r, n_periods=n, v=Fraction(int(rng.integers(50, 500))),
        )
        raw = [int(x) for x in rng.integers(1, 100, n + 1)]
        nu = tuple(Fraction(x, sum(raw)) for x in raw)
        return Instance(self.name, cycle, "exact N=%d" % n,
                        {"kind": "exact", "params": params, "nu": nu})

    def run(self, inst):
        x = inst.inputs
        params, nu = x["params"], x["nu"]
        if x["kind"] == "exact":
            base = measures.risk_neutral_binomial(params)
            minimal = measures.minimal_measure(base, nu)
            n = params.n_periods
            formula = {
                (l, i): measures.binomial_transition_formula(l, i, nu, n_periods=n)[0]
                for l in range(1, n + 1)
                for i in range(n - l + 1)
            }
            return Outcome((minimal, formula))
        utility = x["utility"]
        sol = complete.solve(params, utility, nu)
        lam_bracket = complete.solve_lambda(params, utility, nu, method="bracket")
        replay = complete.simulate_strategy(params, sol.deltas)
        base = measures.risk_neutral_binomial(params)
        minimal = measures.minimal_measure(base, nu)
        ratio = measures.radon_nikodym(base, minimal)
        return Outcome((sol, lam_bracket, replay, ratio))

    def check(self, inst, out):
        x = inst.inputs
        params, nu = x["params"], x["nu"]
        n = params.n_periods
        if x["kind"] == "exact":
            minimal, formula = out.result
            _require(tuple(minimal.terminal_distribution()) == nu,
                     "exact minimal measure does not reproduce nu")
            for (l, i), up in formula.items():
                _require(type(up) is Fraction and up == minimal.up[n - l][i],
                         "transition formula differs from minimal_measure at l=%d i=%d" % (l, i))
            return
        sol, lam_bracket, replay, ratio = out.result
        _require(_close(sol.lam, lam_bracket),
                 "closed-form lambda %r vs bracket %r" % (sol.lam, lam_bracket))
        _require(len(replay) == 2**n, "replay covers %d of %d paths" % (len(replay), 2**n))
        # Rounding in a forward replay is absolute on the scale of the
        # positions held, so the tolerance scales with the largest claim.
        scale = max(1.0, float(np.max(np.abs(sol.terminal_wealth))))
        for path, wealth in replay.items():
            claim = float(sol.terminal_wealth[path.count("d")])
            _require(abs(wealth - claim) <= REL_TOL * scale,
                     "replay %r vs claim %r on path %s" % (wealth, claim, path))
        _require(ratio.terminal_measurable, "dQ/dP is not terminal-measurable")
        if x["utility"].kind == "log":
            rn = risk_neutral_terminal(params.h, params.k, params.r, n)
            w = np.asarray(nu)
            kl = float(np.dot(w, np.log(w / rn)))
            _require(_close(sol.extra_value, kl),
                     "log extra value %r vs KL %r" % (sol.extra_value, kl))


# ---------------------------------------------------------------------------
# trinomial-dual: trinomial and utility
# ---------------------------------------------------------------------------

class TrinomialDual:
    """Stresses trinomial and utility.

    The N=9/10 instances carry the dense-Jacobian cost of the 2^N Newton
    system; the generic third solves the same system without the replay.
    """

    name = "trinomial-dual"
    # (anticipation, N, family).  Product anticipations give replicable
    # claims; Dirichlet-over-paths and lifted terminal laws generally do not.
    # One instance in 32 is N=10, drawn from a pool (see instances).
    # The families are log and power with gamma < 0 only: at this commit the
    # trinomial solver fails on the others, so a run would not complete
    # cleanly.  Exponential utility on generic anticipations stalls into
    # ConvergenceError (8-25% of instances from N=6 on); on product ones the
    # claim can miss the library's replicability tolerance (one N=9 instance
    # in 50).  Power with gamma in (0, 1) needs twice the Newton steps and
    # failed to converge on one N=10 product instance in about 25.  All three
    # are program defects, reproduced in test_perfbench.py.
    # Ten classes cost less than product N=7 and ten more, so that p50 falls
    # in the middle of its twelve.  p90 falls in the middle of product N=9:
    # one N=10 and two N=9 per cycle lie above it, 10% of 32.
    CYCLE = (
        ("dirichlet", 5, "log"), ("dirichlet", 6, "power"), ("lift", 5, "power"),
        ("lift", 5, "log"), ("lift", 6, "log"), ("lift", 6, "power"),
        ("product", 5, "power"), ("product", 6, "power"), ("product", 6, "log"),
        ("dirichlet", 7, "power"),
        *((("product", 7, "power"),) * 6), *((("product", 7, "log"),) * 6),
        ("lift", 8, "log"), ("product", 8, "power"), ("product", 8, "power"),
        ("product", 8, "log"), ("dirichlet", 9, "power"),
        ("product", 9, "power"), ("product", 9, "power"),
        ("product", 9, "log"), ("product", 9, "log"),
        ("product", 10, None),
    )
    WARMUP = (("product", 5, "log"),)
    TRACE_CYCLES = 1
    TOL = 1e-10  # solve_lambda_system default
    N10_POOL = 4  # a run's four cycles hold each member once

    def __init__(self, workload_id: int, root: Path, work: Path, nproc: int):
        self.id = workload_id

    def instances(self, seed, cycle, classes=None):
        rng = instance_rng(seed, self.id, 0 if classes is None else 1, cycle)
        out = []
        for kind, n, family in classes or self.CYCLE:
            if family is None:
                # N=10 Newton solves take 12 to 55 iterations depending on the
                # market, and a run holds only five of them, which would make
                # throughput follow the seed.  So they come from a pool of
                # N10_POOL instances shared by every seed; the seed orders it.
                member = (seed + cycle) % self.N10_POOL
                out.append(self._draw(instance_rng(0, self.id, 2, member), cycle,
                                      kind, n, ("log", "power")[member % 2]))
            else:
                out.append(self._draw(rng, cycle, kind, n, family))
        return out

    def _draw(self, rng, cycle, kind, n, family):
        r = float(rng.uniform(0.0, 0.04))
        rho = 1 + r
        a = rho + float(rng.uniform(0.05, 0.3))
        c = rho - float(rng.uniform(0.05, 0.3))
        b = c + float(rng.uniform(0.2, 0.8)) * (a - c)
        v = float(rng.uniform(50.0, 500.0))
        params = markets.TrinomialParams(
            s=float(rng.uniform(5.0, 50.0)), a=a, b=b, c=c, r=r, n_periods=n, v=v
        )
        if family == "log":
            utility = Utility.log()
        else:
            utility = Utility.power(float(rng.uniform(-2.0, -0.2)))
        if kind == "product":
            nu = []
            for _ in range(n):
                w = np.maximum(rng.dirichlet(np.ones(3)), 0.05)
                nu.append((w / w.sum()).tolist())
        elif kind == "lift":
            nu = _dirichlet(rng, (n + 1) * (n + 2) // 2).tolist()
        else:
            nu = _dirichlet(rng, 3**n)
        return Instance(self.name, cycle, "%s N=%d %s" % (kind, n, utility.describe()),
                        {"kind": kind, "params": params, "utility": utility, "nu": nu})

    def run(self, inst):
        x = inst.inputs
        params, utility = x["params"], x["utility"]
        if x["kind"] == "product":
            nu = trinomial.product_path_anticipation(params, x["nu"])
        elif x["kind"] == "lift":
            nu = trinomial.lift_terminal_anticipation(params, x["nu"])
        else:
            nu = x["nu"]
        sol = trinomial.solve_lambda_system(params, utility, nu, tol=self.TOL)
        residuals = trinomial.budget_residuals(params, sol.terminal_wealth)
        try:
            _, deltas, _ = trinomial.trinomial_wealth_and_delta(params, sol.terminal_wealth)
        except trinomial.ReplicationError as exc:
            replay = exc
        else:
            replay = trinomial.simulate_trinomial_strategy(params, deltas)
        stats = {
            "newton_iterations": sol.iterations,
            "max_budget_residual": float(np.max(np.abs(residuals))),
            "claims": 1,
            "replicable": 0 if isinstance(replay, Exception) else 1,
        }
        return Outcome((sol, residuals, replay), stats)

    def check(self, inst, out):
        x = inst.inputs
        params = x["params"]
        sol, residuals, replay = out.result
        limit = self.TOL * max(1.0, params.v)
        worst = float(np.max(np.abs(residuals)))
        _require(worst <= limit, "budget residual %.3e above %.3e" % (worst, limit))
        if isinstance(replay, Exception):
            _require(x["kind"] != "product", "product claim not replicable: %s" % replay)
            return
        n = params.n_periods
        _require(len(replay) == 3**n, "replay covers %d of %d paths" % (len(replay), 3**n))
        digits = {"u": 0, "m": 1, "d": 2}
        # the library accepts difference quotients that agree to 1e-7; the
        # replay error is absolute on the scale of the largest claim
        scale = max(1.0, float(np.max(np.abs(sol.terminal_wealth))))
        for path, wealth in replay.items():
            index = 0
            for step in path:
                index = 3 * index + digits[step]
            claim = float(sol.terminal_wealth[index])
            _require(abs(wealth - claim) <= 1e-7 * scale,
                     "replay %r vs claim %r on path %s" % (wealth, claim, path))


# ---------------------------------------------------------------------------
# general-market: markets and the M-state half of complete
# ---------------------------------------------------------------------------

class GeneralMarket:
    """Stresses markets and the M-state half of complete.

    Per-node transition_probabilities and price_matrix calls are the work
    here; no other workload touches them.
    """

    name = "general-market"
    # (M, n) with M^n in 2^6..2^11.  d alternates between M and M+1 (one
    # redundant asset that exercises the consistency check); family rotates.
    # (2, 7) repeats so that p50 falls inside it and (2, 11) so that p90 does.
    CYCLE = (
        (4, 3), (4, 3), (3, 4), (3, 4), (2, 6), (4, 4), (3, 5), (2, 7), (2, 7),
        (2, 8), (4, 5), (3, 6), (2, 9), (2, 10), (2, 11), (2, 11),
    )
    WARMUP = ((2, 6),)
    TRACE_CYCLES = 3

    def __init__(self, workload_id: int, root: Path, work: Path, nproc: int):
        self.id = workload_id

    def instances(self, seed, cycle, classes=None):
        rng = instance_rng(seed, self.id, 0 if classes is None else 1, cycle)
        out = []
        for i, (m, n) in enumerate(classes or self.CYCLE):
            d = m + (i + cycle) % 2
            family = FAMILIES[(i + cycle) % 3]
            r = float(rng.uniform(0.0, 0.04))
            rho = 1 + r
            factors = []
            for _ in range(n):
                q = rng.dirichlet(np.full(m, 3.0))  # positive martingale vector
                f = np.empty((m, d))
                f[:, 0] = rho
                for col in range(1, d):
                    g = rng.uniform(0.7, 1.4, m)
                    f[:, col] = g * rho / float(q @ g)
                factors.append(f)
            v = float(rng.uniform(50.0, 500.0))
            leaves = [tuple(int(ch) for ch in np.base_repr(j, m).zfill(n)) for j in range(m**n)]
            nu = dict(zip(leaves, _dirichlet(rng, m**n).tolist()))
            utility = draw_utility(rng, family, v, rho**n)
            out.append(Instance(
                self.name, cycle, "M=%d d=%d n=%d %s" % (m, d, n, utility.describe()),
                {"prices": rng.uniform(5.0, 50.0, d).tolist(), "factors": factors,
                 "r": r, "v": v, "utility": utility, "nu": nu},
            ))
        return out

    def run(self, inst):
        x = inst.inputs
        market = markets.CompleteMarket(x["prices"], x["factors"], x["r"], x["v"])
        report = markets.validate_no_arbitrage(market)
        sol = complete.solve_complete_market(market, x["utility"], x["nu"])
        return Outcome((market, report, sol))

    def check(self, inst, out):
        x = inst.inputs
        market, report, sol = out.result
        _require(report.ok, "no-arbitrage validation failed: %s" % (report.violations,))
        root = sol.wealth[()]
        _require(abs(root - x["v"]) <= REL_TOL * x["v"], "root wealth %r vs v=%r" % (root, x["v"]))
        m = market.m_states
        prices = {(): np.asarray(x["prices"], dtype=float)}
        for depth, f in enumerate(x["factors"]):
            cols = market.replication_assets(depth)
            nxt = {}
            for node, p in prices.items():
                d_mat = f[:, cols] * p[cols]
                child = np.array([sol.wealth[node + (j,)] for j in range(m)])
                delta = sol.deltas[node]
                # componentwise backward error: a stable solve meets it however
                # ill-conditioned D is, where |D delta - w| / |w| need not
                scale = np.maximum(np.abs(child), np.abs(d_mat) @ np.abs(delta))
                _require(np.all(np.abs(d_mat @ delta - child) <= REL_TOL * scale),
                         "D delta misses child wealth at node %r" % (node,))
                for j in range(m):
                    nxt[node + (j,)] = p * f[j]
            prices = nxt


# ---------------------------------------------------------------------------
# cli-runs: sequential weakinfo processes
# ---------------------------------------------------------------------------

class CliRuns:
    """Stresses cli: sequential weakinfo processes, timed including import.

    The only workload that measures import, config parsing and JSON/CSV
    writing.  The start-up-bound shipped configs set p50; the output-heavy
    generated configs (N=20 value and exact measure, a 4 x 1000 sweep,
    trinomial N=8 at full precision and with a lifted terminal law) set p90.
    """

    name = "cli-runs"
    # A cycle is the nine shipped configs and the five generated ones.
    # Process start-up makes 100 instances cost ~40 s of timed work, more
    # than a run's share of the benchmark's time budget.  Five cycles give
    # 70 instances, so p90 here has 7 samples beyond it rather than ten; it
    # falls in the middle of the 15 sweep and trinomial runs.
    MIN_INSTANCES = 70
    GENERATED = ("value20", "measure20", "sweep", "tri8-product", "tri8-lift")
    WARMUP = ("value_log_uniform.json",)
    TRACE_CYCLES = 1
    TIMEOUT_S = 60.0
    # Fixed, so that the sweep (one of the instances at p90) costs the
    # same on every seed; the seed draws its market and wealth grid.
    SWEEP_PERIODS = 10

    def __init__(self, workload_id: int, root: Path, work: Path, nproc: int):
        self.id = workload_id
        self.root = root
        self.work = work
        # One sweep thread: two threads contending for the GIL made the
        # sweep's time vary 0.6-1.2 s on one input, against 0.6-0.7 s.
        self.threads = 1
        self.shipped = sorted((root / "configs").glob("*.json"))
        self.expected: dict = {}
        self.runs = 0
        self.trace_dir = None  # set by the traced run: children record spans

    def instances(self, seed, cycle, classes=None):
        rng = instance_rng(seed, self.id, 0 if classes is None else 1, cycle)
        cfg_dir = self.work / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        names = classes or [p.name for p in self.shipped] + list(self.GENERATED)
        out = []
        for i, name in enumerate(names):
            family = ("log", "power")[(i + cycle) % 2]
            if name in self.GENERATED:
                cfg, extra = self._generate(rng, name, family)
                path = cfg_dir / ("c%d-%s.json" % (cycle, name))
                path.write_text(json.dumps(cfg))
            else:
                path, extra = self.root / "configs" / name, []
                cfg = json.loads(path.read_text())
            command = cfg["run"]["command"]
            out.append(Instance(self.name, cycle, "%s %s" % (command, name),
                                {"command": command, "config": path, "extra": extra}))
        return out

    def _generate(self, rng, name, family):
        utility = {"kind": "log"} if family == "log" else {"kind": "power", "gamma": 0.5}
        r = float(rng.uniform(0.0, 0.04))
        if name == "value20":
            nu = _dirichlet(rng, 21).tolist()
            model = {"type": "binomial", "s": float(rng.uniform(5, 50)), "r": r,
                     "h": r + float(rng.uniform(0.02, 0.15)), "k": float(rng.uniform(0.01, 0.15)),
                     "periods": 20, "v": float(rng.uniform(50, 500))}
            return ({"schema_version": 1, "model": model, "utility": utility,
                     "anticipation": {"terminal": nu}, "run": {"command": "value"}}, [])
        if name == "measure20":
            rr = int(rng.integers(0, 40))
            raw = [int(x) for x in rng.integers(1, 100, 21)]
            model = {"type": "binomial", "s": str(int(rng.integers(5, 50))),
                     "h": "%d/1000" % (rr + int(rng.integers(20, 150))),
                     "k": "%d/1000" % int(rng.integers(10, 150)), "r": "%d/1000" % rr,
                     "periods": 20, "v": str(int(rng.integers(50, 500)))}
            return ({"schema_version": 1, "model": model, "utility": {"kind": "log"},
                     "anticipation": {"terminal": ["%d/%d" % (x, sum(raw)) for x in raw]},
                     "run": {"command": "measure"}}, [])
        if name == "sweep":
            grid = np.sort(rng.uniform(50.0, 1000.0, 1000)).tolist()
            model = {"type": "binomial", "s": float(rng.uniform(5, 50)), "r": r,
                     "h": r + float(rng.uniform(0.02, 0.15)), "k": float(rng.uniform(0.01, 0.15)),
                     "periods": self.SWEEP_PERIODS, "v": 100}
            return ({"schema_version": 1, "model": model, "utility": utility,
                     "run": {"command": "sweep", "v_grid": grid,
                             "presets": ["precise", "uniform", "conservative", "risk-neutral"]}},
                    ["--threads", str(self.threads)])
        rho = 1 + r
        a = rho + float(rng.uniform(0.05, 0.3))
        c = rho - float(rng.uniform(0.05, 0.3))
        b = c + float(rng.uniform(0.2, 0.8)) * (a - c)
        model = {"type": "trinomial", "s": float(rng.uniform(5, 50)), "a": a, "b": b, "c": c,
                 "r": r, "periods": 8, "v": float(rng.uniform(50, 500))}
        if name == "tri8-product":
            triples = []
            for _ in range(8):
                w = np.maximum(rng.dirichlet(np.ones(3)), 0.05)
                triples.append((w / w.sum()).tolist())
            ant, extra = {"per_period": triples}, ["--precision", "17"]
        else:
            ant, extra = {"terminal": _dirichlet(rng, 45).tolist()}, []
        return ({"schema_version": 1, "model": model, "utility": utility,
                 "anticipation": ant, "run": {"command": "trinomial"}}, extra)

    def argv(self, inst, out_dir: Path, spans: Path | None) -> list:
        x = inst.inputs
        tail = [x["command"], "--config", str(x["config"]), "--out", str(out_dir), *x["extra"]]
        if spans is None:
            return [sys.executable, "-m", "weakinfo.cli", *tail]
        child = Path(__file__).with_name("cli_child.py")
        return [sys.executable, str(child), str(spans), *tail]

    def run(self, inst):
        self.runs += 1
        out_dir = self.work / ("out-%d" % self.runs)
        spans = None if self.trace_dir is None else self.trace_dir / ("cli-%d.json" % self.runs)
        env = dict(os.environ, PYTHONPATH=str(Path(weakinfo.__file__).parent.parent))
        with open(self.work / "stderr.txt", "w+") as err:
            proc = subprocess.Popen(self.argv(inst, out_dir, spans), env=env,
                                    stdout=subprocess.DEVNULL, stderr=err, cwd=self.work)
            code, maxrss_kb = wait_child(proc, self.TIMEOUT_S)
            err.seek(0)
            stderr = err.read()[-2000:]
        return Outcome((code, out_dir, stderr, spans), {"child_maxrss_kb": maxrss_kb})

    def check(self, inst, out):
        code, out_dir, stderr, _ = out.result
        try:
            _require(code == 0, "exit code %d: %s" % (code, stderr.strip()))
            try:
                report = json.loads((out_dir / "report.json").read_text())
            except (OSError, ValueError) as exc:
                raise CheckFailure("report.json unreadable: %s" % exc) from None
            x = inst.inputs
            _require(report.get("command") == x["command"], "report names the wrong command")
            out.stats.update(output_stats(out_dir))
            if x["command"] == "trinomial":
                out.stats.update({
                    "newton_iterations": report["results"]["iterations"],
                    # --precision 17 writes floats as repr strings
                    "max_budget_residual": float(report["results"]["max_budget_residual"]),
                    "claims": 1,
                    "replicable": 1 if report["results"]["replicability"]["ok"] else 0,
                })
            self._check_results(inst, report["results"], out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _expected(self, inst):
        """In-process library values for a config, computed once per config."""
        key = str(inst.inputs["config"])
        if key not in self.expected:
            self.expected[key] = expected_results(cli.load_config(inst.inputs["config"]),
                                                  inst.inputs["command"])
        return self.expected[key]

    def _check_results(self, inst, results, out_dir):
        exp = self._expected(inst)
        command = inst.inputs["command"]
        precise = "17" in inst.inputs["extra"]
        rel = REL_TOL if precise else 1e-6  # default output keeps 7 digits

        def same(key, got, want):
            if isinstance(want, Fraction):
                _require(got == str(want), "%s: %r vs exact %s" % (key, got, want))
            else:
                _require(_close(float(got), float(want), rel), "%s: %r vs %r" % (key, got, want))

        for key, want in exp.items():
            if key.startswith("_"):
                continue
            if key == "rows":
                rows = json.loads((out_dir / "curves.json").read_text())
                _require(len(rows) == len(want), "sweep wrote %d of %d rows" % (len(rows), len(want)))
                for row, (name, v, value) in zip(rows, want):
                    _require(row["anticipation"] == name and row["error"] is None,
                             "sweep row %s v=%r failed: %s" % (name, v, row["error"]))
                    same("sweep %s v=%r" % (name, v), row["value"], value)
            elif key == "replicable":
                _require(results["replicability"]["ok"] == want, "replicability differs")
            elif isinstance(want, list):
                _require(len(results[key]) == len(want), "%s length differs" % key)
                for got, w in zip(results[key], want):
                    same(key, got, w)
            else:
                same(key, results[key], want)
        if command == "trinomial":
            limit = exp["_tolerance"] * max(1.0, exp["_v"])
            _require(float(results["max_budget_residual"]) <= limit, "CLI budget residual above tol")


def output_stats(out_dir: Path) -> dict:
    files = [p for p in out_dir.iterdir() if p.is_file()]
    rows = 0
    for p in files:
        if p.suffix == ".csv":
            with p.open() as fh:
                rows += sum(1 for _ in fh) - 1
    return {"output_bytes": sum(p.stat().st_size for p in files), "output_rows": rows}


def expected_results(cfg: dict, command: str) -> dict:
    """Key results of a CLI config, computed with the library in process."""
    m = cfg["model"]
    u = cfg["utility"]
    utility = {"log": Utility.log, "power": lambda: Utility.power(u.get("gamma")),
               "exponential": lambda: Utility.exponential(u.get("alpha"))}[u["kind"]]()
    ant = cfg.get("anticipation", {})
    if command == "trinomial":
        params = markets.TrinomialParams(s=m["s"], a=m["a"], b=m["b"], c=m["c"], r=m["r"],
                                         n_periods=m["periods"], v=m["v"])
        if "paths" in ant:
            nu = [float(x) for x in ant["paths"]]
        elif "per_period" in ant:
            nu = trinomial.product_path_anticipation(params, ant["per_period"])
        else:
            nu = trinomial.lift_terminal_anticipation(params, ant["terminal"], t=ant.get("lift_t", 0.5))
        tol = cfg.get("run", {}).get("tolerance", 1e-10)
        sol = trinomial.solve_lambda_system(params, utility, nu, tol=tol)
        try:
            trinomial.trinomial_wealth_and_delta(params, sol.terminal_wealth,
                                                 t=cfg.get("run", {}).get("t_mix", 0.5))
            replicable = True
        except trinomial.ReplicationError:
            replicable = False
        return {"value": sol.value, "lambda": [float(x) for x in sol.lam],
                "replicable": replicable, "_tolerance": tol, "_v": float(m["v"])}
    params = markets.BinomialParams(s=m["s"], h=m["h"], k=m["k"], r=m["r"],
                                    n_periods=m["periods"], v=m["v"])
    if command == "sweep":
        presets = complete.anticipation_presets(params)
        names = cfg["run"].get("presets", list(presets))
        rows = []
        for name in names:
            for v in cfg["run"]["v_grid"]:
                p = markets.BinomialParams(s=m["s"], h=m["h"], k=m["k"], r=m["r"],
                                           n_periods=m["periods"], v=float(v))
                rows.append((name, v, complete.value_of_information(p, utility, presets[name]).value))
        return {"rows": rows}
    if "terminal" in ant:
        nu = tuple(ant["terminal"])
    else:
        nu = complete.anticipation_presets(params)[ant["preset"]]
    if command == "measure":
        minimal = measures.minimal_measure(measures.risk_neutral_binomial(params), nu)
        return {"root_up_probability": minimal.up[0][0],
                "terminal_distribution": list(minimal.terminal_distribution())}
    sol = complete.solve(params, utility, nu)
    return {"lambda": sol.lam, "value": sol.value, "extra_value": sol.extra_value,
            "delta_0": float(sol.deltas[0][0])}


WORKLOADS = {w.name: w for w in (BinomialVerify, TrinomialDual, GeneralMarket, CliRuns)}
