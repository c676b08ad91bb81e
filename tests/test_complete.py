from __future__ import annotations

import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from oracles import binomial_value_oracle
from weakinfo import complete
from weakinfo import (
    AdmissibilityError,
    Anticipation,
    BinomialParams,
    CompleteMarket,
    ConvergenceError,
    DomainError,
    Utility,
    anticipation_presets,
    simulate_strategy,
    single_period_closed_form,
    solve,
    solve_complete_market,
    solve_lambda,
    sweep,
    value_of_information,
)
from weakinfo.complete import SweepRow, closed_form_lambda, terminal_risk_neutral
from weakinfo.roots import decreasing_root

UNIFORM4 = (0.25, 0.25, 0.25, 0.25)
OPTIMIST4 = (0.2, 0.4, 0.3, 0.1)
ALL_UTILITIES = [Utility.log(), Utility.power(0.5), Utility.power(-1.1), Utility.exponential(0.01)]


def _random_params(rng, n=None):
    n = int(rng.integers(1, 7)) if n is None else n
    h = float(rng.uniform(0.03, 0.25))
    k = float(rng.uniform(0.02, 0.2))
    r = float(rng.uniform(-0.5 * k + 0.01, 0.8 * h))
    if not h > r > -k:
        r = 0.5 * (h - k) if h > 0.5 * (h - k) > -k else 0.0
    v = float(rng.uniform(20, 800))
    return BinomialParams(s=float(rng.uniform(5, 80)), h=h, k=k, r=r, n_periods=n, v=v)


def _random_nu(rng, size, floor=1e-3):
    w = rng.dirichlet(np.ones(size))
    w = np.maximum(w, floor)
    return tuple(w / w.sum())


# ---------------------------------------------------------------------------
# the budget multiplier
# ---------------------------------------------------------------------------

def test_log_lambda_is_inverse_wealth(fig_market):
    assert solve_lambda(fig_market, Utility.log(), UNIFORM4) == pytest.approx(0.005, rel=1e-14)


@pytest.mark.parametrize("utility", ALL_UTILITIES, ids=lambda u: u.describe())
def test_generic_solver_matches_closed_form(fig_market, utility):
    closed = solve_lambda(fig_market, utility, OPTIMIST4, method="closed")
    bracket = solve_lambda(fig_market, utility, OPTIMIST4, method="bracket")
    assert bracket == pytest.approx(closed, rel=1e-9)


def _raised_within(seconds, fn, *args, **kwargs):
    """Run fn on a daemon thread; return what it raised, failing on a hang."""
    outcome = []

    def target():
        try:
            fn(*args, **kwargs)
        except Exception as exc:
            outcome.append(exc)
        else:
            outcome.append(None)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "%s did not return within %g s" % (fn.__name__, seconds)
    return outcome[0]


def _underflow_market(n_periods=3):
    # exponential(10) at v=200: the true multiplier is about 1e-954, below
    # the smallest double, so bisection stalls among subnormals
    return BinomialParams(s=20, h=0.09, k=0.019, r=0.032, n_periods=n_periods, v=200)


def test_bracket_with_unrepresentable_lambda_raises():
    exc = _raised_within(
        10, solve_lambda, _underflow_market(), Utility.exponential(10), (0.25,) * 4,
        method="bracket",
    )
    assert isinstance(exc, ConvergenceError)
    assert exc.history  # the (lo, hi) brackets it went through


def test_unrepresentable_lambda_solves_on_the_closed_route():
    # lam ~ 1e-954 rounds to 0, but the wealth it buys is v rho^N plus a
    # v-free spread, so the claim, the hedge and the proportion are ordinary
    p, utility, nu = _underflow_market(), Utility.exponential(10), (0.25,) * 4
    sol = solve(p, utility, nu)
    assert sol.lam == 0.0
    assert float(sol.wealth[0][0]) == pytest.approx(200.0, rel=1e-12, abs=0)
    claim = sol.terminal_wealth
    replay = simulate_strategy(p, sol.deltas)
    worst = max(abs(x - claim[path.count("d")]) for path, x in replay.items())
    assert worst <= 1e-9 * np.max(np.abs(claim))
    # exponential wealth minus v rho^N does not depend on v: compare with
    # the bracket route at v = 1, where lam is representable
    at_one = solve(replace(p, v=1.0), utility, nu, method="bracket")
    rho_n = float(p.rho) ** 3
    np.testing.assert_allclose(sol.terminal_wealth, at_one.terminal_wealth + 199 * rho_n, rtol=1e-12)
    rn = terminal_risk_neutral(p)
    kl = float(np.dot(rn, np.log(rn / 0.25)))
    assert sol.proportion == pytest.approx(1 - math.exp(kl), abs=1e-12)
    assert sol.proportion == pytest.approx(-0.142941, abs=1e-6)


def test_general_market_with_unrepresentable_lambda_solves():
    p = _underflow_market()
    factors = [[[1 + p.r, 1 + p.h], [1 + p.r, 1 - p.k]]] * p.n_periods
    market = CompleteMarket([1.0, p.s], factors, r=p.r, v=p.v)
    # the uniform terminal law spread evenly over the paths to each node
    nu = {leaf: 0.25 / math.comb(3, sum(leaf)) for leaf in market.leaves()}
    sol = solve_complete_market(market, Utility.exponential(10), nu)
    binom = solve(p, Utility.exponential(10), (0.25,) * 4)
    assert sol.wealth[()] == pytest.approx(200.0, rel=1e-12, abs=0)
    want = binom.terminal_wealth[[sum(leaf) for leaf in market.leaves()]]
    np.testing.assert_allclose(np.asarray(sol.terminal_wealth.levels[3]), want, rtol=1e-12)
    assert sol.proportion == pytest.approx(binom.proportion, abs=1e-12)


def test_exponential_proportion_is_one_minus_exp_kl():
    p, utility, nu = _underflow_market(), Utility.exponential(10), (0.25,) * 4
    rn = terminal_risk_neutral(p)
    kl = float(np.dot(rn, np.log(rn / 0.25)))
    triple = value_of_information(p, utility, nu)
    assert triple.proportion == pytest.approx(1 - math.exp(kl), abs=1e-12)
    rows = sweep(p, utility, {"uniform": nu}, [1.0, 200.0])
    assert [r.proportion for r in rows] == [triple.proportion] * 2


@pytest.mark.parametrize("alpha", [1e-3, 0.01])
def test_exponential_proportion_matches_the_utility_ratio(fig_market, alpha):
    # where nothing underflows, 1 - exp(KL) is 1 - riskfree_u / u
    utility = Utility.exponential(alpha)
    triple = value_of_information(fig_market, utility, OPTIMIST4)
    riskfree_u = -math.exp(-fig_market.v * alpha * float(fig_market.rho) ** 3)
    assert triple.proportion == pytest.approx(1 - riskfree_u / triple.value, abs=1e-12)
    assert solve(fig_market, utility, OPTIMIST4).proportion == pytest.approx(triple.proportion, abs=1e-12)


def test_value_overflow_is_a_domain_error_naming_v():
    p = BinomialParams(s=20, h=0.09, k=0.019, r=0.032, n_periods=3, v=1e-300)
    utility = Utility.power(-2.5)
    with pytest.raises(DomainError, match="v=1e-300"):
        value_of_information(p, utility, UNIFORM4)
    rows = sweep(replace(p, v=100.0), utility, {"uniform": UNIFORM4}, [100.0, 1e-300])
    assert rows[0].error is None and rows[0].proportion is not None
    assert "v=1e-300" in rows[1].error and rows[1].value is None


@pytest.mark.parametrize("value", [1.0, -1.0, math.nan])
def test_decreasing_root_raises_when_the_scan_never_straddles(value):
    with pytest.raises(ConvergenceError) as info:
        decreasing_root(lambda x: value, 1e-12)
    assert info.value.history


def test_decreasing_root_bisects_to_adjacent_doubles():
    root = decreasing_root(lambda x: 3.0 - x, np.finfo(float).eps)
    assert abs(root - 3.0) <= 3.0 * np.finfo(float).eps


@pytest.mark.parametrize("alpha", [1.0, 0.01])
def test_exponential_lambda_matches_display(fig_market, alpha):
    # lam = alpha rho^N exp(-v alpha rho^N - E_rn[ln(d rn/d minimal)]),
    # recomputed here from scratch over the terminal nodes
    rn = terminal_risk_neutral(fig_market)
    nu = np.array(OPTIMIST4)
    rho_n = fig_market.rho**3
    entropy = float(np.dot(rn, np.log(rn / nu)))
    expected = alpha * rho_n * math.exp(-fig_market.v * alpha * rho_n - entropy)
    got = closed_form_lambda(fig_market, Utility.exponential(alpha), OPTIMIST4)
    assert got == pytest.approx(expected, rel=1e-9)


def test_exponential_allows_negative_terminal_wealth(fig_market):
    # constant absolute risk aversion keeps the wealth spread fixed, so a
    # small alpha pushes low-anticipation nodes below zero; the solution
    # stays valid and budget-tight
    sol = solve(fig_market, Utility.exponential(0.001), (0.55, 0.35, 0.05, 0.05))
    assert np.min(sol.terminal_wealth) < 0
    rn = terminal_risk_neutral(fig_market)
    budget = float(np.dot(rn, sol.terminal_wealth)) / fig_market.rho**3
    assert budget == pytest.approx(fig_market.v, rel=1e-10)


# ---------------------------------------------------------------------------
# terminal wealth and the wealth process
# ---------------------------------------------------------------------------

def test_log_terminal_wealth_formula(fig_market):
    sol = solve(fig_market, Utility.log(), OPTIMIST4)
    rn = terminal_risk_neutral(fig_market)
    expected = fig_market.v * fig_market.rho**3 * np.array(OPTIMIST4) / rn
    assert np.allclose(sol.terminal_wealth, expected, rtol=1e-12)


def test_risk_neutral_anticipation_gives_flat_wealth(fig_market):
    nu = tuple(terminal_risk_neutral(fig_market))
    sol = solve(fig_market, Utility.log(), nu)
    assert np.allclose(sol.terminal_wealth, fig_market.v * fig_market.rho**3, rtol=1e-12)


@pytest.mark.parametrize("utility", ALL_UTILITIES, ids=lambda u: u.describe())
def test_budget_identity(fig_market, utility):
    sol = solve(fig_market, utility, OPTIMIST4)
    rn = terminal_risk_neutral(fig_market)
    budget = float(np.dot(rn, sol.terminal_wealth)) / fig_market.rho**3
    assert budget == pytest.approx(fig_market.v, rel=1e-10)
    assert float(sol.wealth[0][0]) == pytest.approx(fig_market.v, rel=1e-10)
    assert np.allclose(sol.wealth[-1], sol.terminal_wealth)


def test_discounted_wealth_is_martingale(fig_market):
    for utility in ALL_UTILITIES:
        sol = solve(fig_market, utility, OPTIMIST4)
        assert sol.martingale_gap() <= 1e-10


# ---------------------------------------------------------------------------
# replication: golden trees and self-financing
# ---------------------------------------------------------------------------

def test_golden_log_uniform_tree(fig_market):
    sol = solve(fig_market, Utility.log(), UNIFORM4)
    assert sol.deltas[0][0] == pytest.approx(12.21095, abs=1e-3)
    assert np.allclose(sol.deltas[1], [76.48093, -50.58155], atol=1e-3)
    assert np.allclose(sol.deltas[2], [146.4281, 8.141736, -107.9549], atol=1e-3)


def test_log_optimistic_tree_matches_oracle(fig_market):
    """The optimistic-angle holdings, pinned against the brute-force optimum."""
    x, value = binomial_value_oracle(fig_market, Utility.log(), np.array(OPTIMIST4))
    sol = solve(fig_market, Utility.log(), OPTIMIST4)
    assert sol.value == pytest.approx(value, abs=1e-9)
    assert np.allclose(sol.terminal_wealth, x, rtol=1e-5)
    assert sol.deltas[0][0] == pytest.approx(37.5632184, abs=1e-4)
    assert np.allclose(sol.deltas[1], [52.4776836, 22.9916144], atol=1e-4)
    assert np.allclose(sol.deltas[2], [68.5712091, 36.7541243, 9.5454840], atol=1e-4)


def test_power_uniform_tree_matches_oracle(fig_market):
    x, value = binomial_value_oracle(fig_market, Utility.power(0.5), np.array(UNIFORM4))
    sol = solve(fig_market, Utility.power(0.5), UNIFORM4)
    assert sol.value == pytest.approx(value, abs=1e-9)
    assert np.allclose(sol.terminal_wealth, x, rtol=1e-5)
    assert sol.deltas[0][0] == pytest.approx(40.5033826, abs=1e-4)
    assert np.allclose(sol.deltas[1], [171.8577733, -87.8313669], atol=1e-4)
    assert np.allclose(sol.deltas[2], [339.5282141, 8.0418253, -181.5005776], atol=1e-4)


@pytest.mark.parametrize("utility", ALL_UTILITIES, ids=lambda u: u.describe())
def test_forward_simulation_replicates_terminal_wealth(fig_market, utility):
    sol = solve(fig_market, utility, OPTIMIST4)
    sim = simulate_strategy(fig_market, sol.deltas)
    for path, wealth in sim.items():
        i = path.count("d")
        assert wealth == pytest.approx(float(sol.terminal_wealth[i]), rel=1e-9)


def test_replication_is_self_financing_everywhere():
    rng = np.random.default_rng(23)
    for _ in range(20):
        params = _random_params(rng)
        nu = _random_nu(rng, params.n_periods + 1)
        sol = solve(params, Utility.log(), nu)
        n = params.n_periods
        rho = params.rho
        for t in range(n):
            for i in range(t + 1):
                s_now = params.s * (1 + params.h) ** (t - i) * (1 - params.k) ** i
                d = sol.deltas[t][i]
                bond = (sol.wealth[t][i] - d * s_now) * rho
                up = bond + d * s_now * (1 + params.h)
                dn = bond + d * s_now * (1 - params.k)
                assert up == pytest.approx(float(sol.wealth[t + 1][i]), rel=1e-9)
                assert dn == pytest.approx(float(sol.wealth[t + 1][i + 1]), rel=1e-9)


# ---------------------------------------------------------------------------
# one-period closed forms
# ---------------------------------------------------------------------------

def test_single_period_log_golden(fig_market_1p):
    d0 = single_period_closed_form(Utility.log(), fig_market_1p, (0.5, 0.5))
    assert d0 == pytest.approx(12.21095, abs=1e-4)


def test_single_period_risk_neutral_odds_give_zero(fig_market_1p):
    h, k, r = 0.09, 0.019, 0.032
    nu0 = (k + r) / (h + k)  # makes nu0 (h-r) - nu1 (k+r) vanish
    d0 = single_period_closed_form(Utility.log(), fig_market_1p, (nu0, 1 - nu0))
    assert d0 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("utility", ALL_UTILITIES, ids=lambda u: u.describe())
def test_single_period_closed_form_matches_pipeline(fig_market_1p, utility):
    nu = (0.62, 0.38)
    sol = solve(fig_market_1p, utility, nu)
    d0 = single_period_closed_form(utility, fig_market_1p, nu)
    assert d0 == pytest.approx(float(sol.deltas[0][0]), rel=1e-9)


def test_single_period_exponential_domain_error():
    p = BinomialParams(s=20.0, h=0.09, k=0.019, r=0.032, n_periods=1, v=200.0)
    with pytest.raises(DomainError):
        # nu1 (k + r) = 0 makes the log argument blow up
        single_period_closed_form(
            Utility.exponential(1.0), p,
            __import__("weakinfo").Anticipation.of((1.0, 0.0), allow_zero=True),
        )


# ---------------------------------------------------------------------------
# value, extra value, proportion
# ---------------------------------------------------------------------------

def test_log_value_is_wealth_term_plus_relative_entropy(fig_market):
    triple = value_of_information(fig_market, Utility.log(), OPTIMIST4)
    rn = terminal_risk_neutral(fig_market)
    nu = np.array(OPTIMIST4)
    kl = float(np.dot(nu, np.log(nu / rn)))
    assert triple.value == pytest.approx(math.log(200 * 1.032**3) + kl, rel=1e-12)
    assert triple.extra_value == pytest.approx(kl, rel=1e-12)


def test_risk_neutral_anticipation_has_zero_extra_value(fig_market):
    nu = tuple(terminal_risk_neutral(fig_market))
    for utility in ALL_UTILITIES:
        triple = value_of_information(fig_market, utility, nu)
        assert triple.extra_value == pytest.approx(0.0, abs=1e-12)


def test_extra_value_nonnegative_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        params = _random_params(rng, n=int(rng.integers(1, 7)))
        nu = _random_nu(rng, params.n_periods + 1)
        triple = value_of_information(params, Utility.log(), nu)
        assert triple.extra_value >= -1e-12


@pytest.mark.parametrize("utility", ALL_UTILITIES, ids=lambda u: u.describe())
def test_closed_value_matches_generic_expected_utility(fig_market, utility):
    sol = solve(fig_market, utility, OPTIMIST4)  # generic: E^nu[U(V_N)]
    triple = value_of_information(fig_market, utility, OPTIMIST4)
    assert triple.value == pytest.approx(sol.value, rel=1e-9)
    assert triple.extra_value == pytest.approx(sol.extra_value, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("utility", ALL_UTILITIES, ids=lambda u: u.describe())
def test_value_matches_brute_force_oracle(fig_market, utility):
    _, oracle_value = binomial_value_oracle(fig_market, utility, np.array(OPTIMIST4))
    triple = value_of_information(fig_market, utility, OPTIMIST4)
    assert triple.value == pytest.approx(oracle_value, abs=1e-8)


def test_risk_free_dominance(fig_market):
    rng = np.random.default_rng(5)
    for utility in ALL_UTILITIES:
        for _ in range(10):
            nu = _random_nu(rng, 4)
            triple = value_of_information(fig_market, utility, nu)
            riskfree = utility.evaluate(fig_market.v * fig_market.rho**3)
            assert triple.value >= riskfree - 1e-12


def test_local_strategy_perturbations_do_not_improve(fig_market):
    nu = np.array(OPTIMIST4)
    sol = solve(fig_market, Utility.log(), OPTIMIST4)

    def expected_utility(deltas):
        sim = simulate_strategy(fig_market, deltas)
        total = 0.0
        for path, wealth in sim.items():
            if wealth <= 0:
                return -np.inf
            total += nu[path.count("d")] / math.comb(3, path.count("d")) * math.log(wealth)
        return total

    base = expected_utility(sol.deltas)
    assert base == pytest.approx(sol.value, rel=1e-10)
    for t in range(3):
        for i in range(t + 1):
            for eps in (-1e-3, -1e-5, 1e-5, 1e-3):
                trial = [np.array(level, dtype=float).copy() for level in sol.deltas]
                trial[t][i] += eps * max(1.0, abs(trial[t][i]))
                assert expected_utility(trial) <= base + 1e-7


# ---------------------------------------------------------------------------
# wealth sweep
# ---------------------------------------------------------------------------

def test_presets_shape(sweep_market):
    presets = anticipation_presets(sweep_market)
    assert set(presets) == {"precise", "uniform", "conservative", "risk-neutral"}
    assert presets["precise"] == pytest.approx((0.01, 0.01, 0.01, 0.95, 0.01, 0.01))
    assert presets["conservative"] == pytest.approx((0.1, 0.2, 0.2, 0.2, 0.2, 0.1))
    for weights in presets.values():
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_sweep_log_properties(sweep_market):
    grid = np.linspace(50, 1000, 20)
    rows = sweep(sweep_market, Utility.log(), anticipation_presets(sweep_market), grid)
    by_name: dict[str, list] = {}
    for row in rows:
        assert row.error is None
        by_name.setdefault(row.anticipation, []).append(row)
    for name, chunk in by_name.items():
        extras = [r.extra_value for r in chunk]
        assert max(extras) - min(extras) <= 1e-9
        if name == "risk-neutral":
            assert all(abs(x) <= 1e-10 for x in extras)
        else:
            props = [r.proportion for r in chunk]
            assert all(a > b for a, b in zip(props, props[1:]))


def test_sweep_power_properties(sweep_market):
    grid = np.linspace(50, 1000, 20)
    rows = sweep(sweep_market, Utility.power(0.5), anticipation_presets(sweep_market), grid)
    by_name: dict[str, list] = {}
    for row in rows:
        assert row.error is None
        by_name.setdefault(row.anticipation, []).append(row)
    for name, chunk in by_name.items():
        props = [r.proportion for r in chunk]
        assert max(props) - min(props) <= 1e-9
        extras = [r.extra_value for r in chunk]
        if name != "risk-neutral":
            assert all(a < b for a, b in zip(extras, extras[1:]))


def test_sweep_tags_failing_rows(sweep_market):
    rows = sweep(sweep_market, Utility.log(), {"uniform": (1 / 6,) * 6}, [100.0, -5.0])
    good = [r for r in rows if r.error is None]
    bad = [r for r in rows if r.error is not None]
    assert len(good) == 1 and len(bad) == 1
    assert bad[0].v == -5.0


@pytest.mark.parametrize("utility", ALL_UTILITIES, ids=str)
def test_sweep_rows_equal_value_of_information(sweep_market, utility):
    # the sweep does the wealth-free work once per anticipation; every row
    # must still be the per-v closed form to the bit, and every rejected
    # row must keep its message: v is checked before the anticipation
    anticipations = {
        **anticipation_presets(sweep_market),
        "zero": Anticipation((0.0, 0.2, 0.2, 0.2, 0.2, 0.2), allow_zero=True),
    }
    grid = [50.0, 123.456, -5.0, 0.0, 1e4]
    want = []
    for name, nu in anticipations.items():
        for v in grid:
            try:
                t = value_of_information(replace(sweep_market, v=v), utility, nu)
                want.append(SweepRow(name, v, t.value, t.extra_value, t.proportion))
            except (AdmissibilityError, DomainError) as exc:
                want.append(SweepRow(name, v, None, None, None, error=str(exc)))
    rows = sweep(sweep_market, utility, anticipations, grid)
    assert list(map(repr, rows)) == list(map(repr, want))
    errors = {r.error for r in rows if r.error}
    assert "initial wealth must satisfy v > 0" in errors
    assert (utility.kind == "log") != any("strictly positive" in e for e in errors)


def test_sweep_propagates_non_model_errors(sweep_market):
    # a malformed grid entry is a caller bug, not a row of data
    with pytest.raises(TypeError):
        sweep(sweep_market, Utility.log(), {"bad": (0.5, None)}, [100.0])


def test_sweep_threaded_output_is_identical(sweep_market):
    presets = anticipation_presets(sweep_market)
    grid = np.linspace(50, 1000, 10)
    seq = sweep(sweep_market, Utility.log(), presets, grid, threads=1)
    par = sweep(sweep_market, Utility.log(), presets, grid, threads=4)
    assert seq == par


# ---------------------------------------------------------------------------
# general M-state complete markets
# ---------------------------------------------------------------------------

def _toy_market(n_periods=2, v=100.0):
    factors = [
        [[1.05, 1.30, 0.80], [1.05, 0.95, 1.25], [1.05, 0.75, 1.05]]
    ] * n_periods
    return CompleteMarket([1.0, 10.0, 5.0], factors, r=0.05, v=v)


def test_general_market_three_states():
    market = _toy_market()
    leaves = list(market.leaves())
    rng = np.random.default_rng(2)
    w = rng.dirichlet(np.ones(len(leaves)))
    w = np.maximum(w, 1e-3)
    w /= w.sum()
    nu = dict(zip(leaves, w))
    sol = solve_complete_market(market, Utility.log(), nu)
    assert sol.wealth[()] == pytest.approx(100.0, rel=1e-10)
    # replication solves D delta = child wealth at every node, and costs the
    # node's wealth (self-financing)
    for node, delta in sol.deltas.items():
        d_mat = market.price_matrix(node)
        children = np.array([sol.wealth[node + (j,)] for j in range(3)])
        assert np.allclose(d_mat @ delta, children, rtol=1e-9)
        cost = float(np.dot(market.prices_at(node)[market.replication_assets(len(node))], delta))
        assert cost == pytest.approx(sol.wealth[node], rel=1e-9)
    # risk-free dominance
    assert sol.value >= Utility.log().evaluate(100.0 * 1.05**2) - 1e-12


def test_general_market_checks_the_budget(monkeypatch):
    # log utility spends 1/lam, so doubling lam leaves the root at v/2
    market = _toy_market()
    leaves = list(market.leaves())
    nu = {leaf: 1.0 / len(leaves) for leaf in leaves}
    assert solve_complete_market(market, Utility.log(), nu).lam == pytest.approx(1 / 100.0)

    def forced(utility, w, z, rho, n, v):
        lam = 2 / 100.0
        return lam, utility.inverse_marginal(lam * rho ** (-n) * z), None

    monkeypatch.setattr(complete, "_closed_form", forced)
    with pytest.raises(ConvergenceError, match="budget equation violated: root wealth 50 vs v=100"):
        solve_complete_market(market, Utility.log(), nu)


def test_general_market_matches_binomial_specialization(fig_market):
    factors = [[[1.032, 1.09], [1.032, 0.981]]] * 3
    market = CompleteMarket([1.0, 20.0], factors, r=0.032, v=200.0)
    nu_terminal = np.array(OPTIMIST4)
    nu = {
        leaf: float(nu_terminal[sum(leaf)] / math.comb(3, sum(leaf)))
        for leaf in market.leaves()
    }
    general = solve_complete_market(market, Utility.log(), nu)
    binom = solve(fig_market, Utility.log(), OPTIMIST4)
    assert general.value == pytest.approx(binom.value, rel=1e-12)
    assert general.lam == pytest.approx(binom.lam, rel=1e-9)
    # state (0,) is "one up-move": wealth and risky holdings agree
    assert general.wealth[(0,)] == pytest.approx(float(binom.wealth[1][0]), rel=1e-9)
    assert general.deltas[()][1] == pytest.approx(float(binom.deltas[0][0]), rel=1e-8)
