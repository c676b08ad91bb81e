from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import maximize_terminal_claim
from weakinfo import (
    AdmissibilityError,
    BinomialParams,
    ConvergenceError,
    TrinomialParams,
    Utility,
    budget_residuals,
    extremal_measures,
    interior_measure,
    lift_terminal_anticipation,
    optimal_terminal_wealth_trinomial,
    product_measures,
    product_path_anticipation,
    simulate_trinomial_strategy,
    solve_lambda_system,
    trinomial_wealth_and_delta,
    value_of_information,
)
from weakinfo.trinomial import (
    ReplicationError,
    _mode_contract,
    _start_shape,
    coerce_path_anticipation,
    path_index,
    path_strings,
)


def _product_nu(params, rng):
    triples = []
    for _ in range(params.n_periods):
        w = rng.dirichlet(np.ones(3))
        w = np.maximum(w, 0.05)
        triples.append(w / w.sum())
    return product_path_anticipation(params, triples)


# ---------------------------------------------------------------------------
# extremal measures
# ---------------------------------------------------------------------------

def test_extremal_triples_exact(tri_market_exact):
    pair = extremal_measures(tri_market_exact)
    # b >= 1+r branch: zero on top for p0, zero in the middle for p1
    assert pair.p0 == (0, F(2, 3), F(1, 3))
    assert pair.p1 == (F(1, 3), 0, F(2, 3))
    mult = tri_market_exact.multipliers
    rho = tri_market_exact.rho
    assert sum(p * m for p, m in zip(pair.p0, mult)) == rho
    assert sum(p * m for p, m in zip(pair.p1, mult)) == rho
    assert sum(pair.p0) == 1 and sum(pair.p1) == 1


def test_extremal_triples_b_below_rho():
    p = TrinomialParams(
        s=F(10), a=F(6, 5), b=F(1), c=F(9, 10), r=F(1, 20), n_periods=1, v=F(100)
    )
    pair = extremal_measures(p)
    assert pair.p0 == (F(1, 4), F(3, 4), 0)
    assert pair.middle_below_rho
    mult = p.multipliers
    assert sum(x * m for x, m in zip(pair.p0, mult)) == p.rho


def test_extremal_requires_admissibility():
    bad = TrinomialParams(s=10.0, a=1.2, b=1.05, c=0.9, r=0.5, n_periods=1, v=100.0)
    with pytest.raises(AdmissibilityError, match="a > 1\\+r"):
        extremal_measures(bad)


def test_interior_measure_is_strictly_positive(tri_market):
    pair = extremal_measures(tri_market)
    mid = interior_measure(pair, 0.5)
    assert all(x > 0 for x in mid)
    assert sum(mid) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        interior_measure(pair, 1.0)


# ---------------------------------------------------------------------------
# product measures
# ---------------------------------------------------------------------------

def test_one_period_products_are_the_extremal_pair(tri_market_exact):
    p1 = TrinomialParams(
        s=F(10), a=F(6, 5), b=F(21, 20), c=F(9, 10), r=F(0), n_periods=1, v=F(100)
    )
    pair = extremal_measures(p1)
    pm = product_measures(pair, 1)
    assert pm.choices() == ["0", "1"]
    for outcome, idx in (("u", 0), ("m", 1), ("d", 2)):
        assert pm.path_probability("0", outcome) == pair.p0[idx]
        assert pm.path_probability("1", outcome) == pair.p1[idx]


def test_two_period_products(tri_market_exact):
    pair = extremal_measures(tri_market_exact)
    pm = product_measures(pair, 2)
    assert pm.choices() == ["00", "01", "10", "11"]
    for c0 in "01":
        for c1 in "01":
            tri0 = pair.p0 if c0 == "0" else pair.p1
            tri1 = pair.p0 if c1 == "0" else pair.p1
            for o0, i0 in (("u", 0), ("m", 1), ("d", 2)):
                for o1, i1 in (("u", 0), ("m", 1), ("d", 2)):
                    assert pm.path_probability(c0 + c1, o0 + o1) == tri0[i0] * tri1[i1]


def test_mixture_expansion_matches_products():
    p = TrinomialParams(s=10.0, a=1.2, b=1.05, c=0.9, r=0.0, n_periods=3, v=100.0)
    pair = extremal_measures(p)
    pm = product_measures(pair, 3)
    w = pair.as_matrix()
    rng = np.random.default_rng(9)
    for _ in range(10):
        t = rng.uniform(0.1, 0.9, 3)
        for path in path_strings(3):
            direct = 1.0
            for n, step in enumerate(path):
                tri = t[n] * w[0] + (1 - t[n]) * w[1]
                direct *= tri[{"u": 0, "m": 1, "d": 2}[step]]
            combo = 0.0
            for choice in pm.choices():
                weight = np.prod([t[n] if ch == "0" else 1 - t[n] for n, ch in enumerate(choice)])
                combo += weight * float(pm.path_probability(choice, path))
            assert combo == pytest.approx(direct, abs=1e-12)


def test_interior_mixtures_price_the_stock():
    p = TrinomialParams(s=10.0, a=1.2, b=1.05, c=0.9, r=0.04, n_periods=1, v=100.0)
    pair = extremal_measures(p)
    mult = np.array(p.multipliers)
    rng = np.random.default_rng(13)
    for t in rng.uniform(0.01, 0.99, 100):
        tri = np.array([float(x) for x in interior_measure(pair, t)])
        assert float(tri @ mult) == pytest.approx(p.rho, abs=1e-12)
        assert np.all(tri > 0)


# ---------------------------------------------------------------------------
# the multiplier system
# ---------------------------------------------------------------------------

def test_one_period_log_matches_direct_oracle():
    p = TrinomialParams(s=10.0, a=1.2, b=1.05, c=0.9, r=0.02, n_periods=1, v=100.0)
    nu = np.array([0.5, 0.3, 0.2])
    sol = solve_lambda_system(p, Utility.log(), nu)
    assert sol.max_residual <= 1e-8 * p.v
    pm = product_measures(extremal_measures(p), 1)
    constraints = pm.matrix() / p.rho
    x, value = maximize_terminal_claim(
        constraints, np.array([p.v, p.v]), nu, Utility.log(), positive=True
    )
    assert sol.value == pytest.approx(value, abs=1e-6)
    assert np.allclose(sol.terminal_wealth, x, rtol=1e-4)


def test_one_period_power_matches_direct_oracle():
    p = TrinomialParams(s=10.0, a=1.2, b=1.05, c=0.9, r=0.02, n_periods=1, v=100.0)
    nu = np.array([0.45, 0.25, 0.30])
    sol = solve_lambda_system(p, Utility.power(0.5), nu)
    pm = product_measures(extremal_measures(p), 1)
    x, value = maximize_terminal_claim(
        pm.matrix() / p.rho, np.array([p.v, p.v]), nu, Utility.power(0.5), positive=True
    )
    assert sol.value == pytest.approx(value, abs=1e-6)


def test_constant_claim_fixture(tri_market):
    # nu proportional to the mean product measure aligns all densities, so
    # the optimum is the risk-free claim
    pair = extremal_measures(tri_market)
    w = pair.as_matrix()
    mean = np.array([1.0])
    for _ in range(tri_market.n_periods):
        mean = np.kron(mean, 0.5 * (w[0] + w[1]))
    sol = solve_lambda_system(tri_market, Utility.log(), mean)
    flat = tri_market.v * tri_market.rho**tri_market.n_periods
    assert np.allclose(sol.terminal_wealth, flat, rtol=1e-8)
    wealth, deltas, report = trinomial_wealth_and_delta(tri_market, sol.terminal_wealth)
    assert report.ok
    assert all(abs(d) <= 1e-8 for d in deltas.values())


def test_log_wealth_scaling_halves_multipliers(tri_market):
    rng = np.random.default_rng(21)
    nu = _product_nu(tri_market, rng)
    sol1 = solve_lambda_system(tri_market, Utility.log(), nu)
    double = TrinomialParams(
        s=tri_market.s, a=tri_market.a, b=tri_market.b, c=tri_market.c,
        r=tri_market.r, n_periods=tri_market.n_periods, v=2 * tri_market.v,
    )
    sol2 = solve_lambda_system(double, Utility.log(), nu)
    assert np.allclose(sol2.lam, sol1.lam / 2, rtol=1e-7)
    assert np.allclose(sol2.terminal_wealth, 2 * sol1.terminal_wealth, rtol=1e-7)


def test_budgets_hold_under_every_product_measure(tri_market):
    rng = np.random.default_rng(4)
    for utility in (Utility.log(), Utility.power(0.5), Utility.exponential(0.02)):
        nu = _product_nu(tri_market, rng)
        sol = solve_lambda_system(tri_market, utility, nu)
        res = budget_residuals(tri_market, sol.terminal_wealth)
        assert np.max(np.abs(res)) <= 1e-8 * tri_market.v


def test_terminal_wealth_formula_specializations(tri_market):
    rng = np.random.default_rng(6)
    nu = _product_nu(tri_market, rng)
    pm = product_measures(extremal_measures(tri_market), 2)
    w_mat = pm.matrix()
    rho_n = tri_market.rho**2

    sol = solve_lambda_system(tri_market, Utility.log(), nu)
    mix = w_mat.T @ sol.lam
    # log specialization: V = rho^N / sum_j lam_j P^j(b) / nu(b)
    assert np.allclose(sol.terminal_wealth, rho_n / (mix / nu), rtol=1e-12)
    again = optimal_terminal_wealth_trinomial(sol.lam, tri_market, Utility.log(), nu)
    assert np.allclose(again, sol.terminal_wealth, rtol=1e-12)

    alpha = 0.02
    solx = solve_lambda_system(tri_market, Utility.exponential(alpha), nu)
    mix = w_mat.T @ solx.lam
    # exponential specialization: V = -(1/alpha) ln( (1/(rho^N alpha)) sum_j lam_j dP^j/dnu )
    expected = -np.log(mix / nu / (rho_n * alpha)) / alpha
    assert np.allclose(solx.terminal_wealth, expected, rtol=1e-10)


# ---------------------------------------------------------------------------
# hedging
# ---------------------------------------------------------------------------

def test_one_period_pairwise_delta_consistency():
    p = TrinomialParams(s=10.0, a=1.2, b=1.05, c=0.9, r=0.02, n_periods=1, v=100.0)
    nu = np.array([0.5, 0.3, 0.2])
    sol = solve_lambda_system(p, Utility.log(), nu)
    v = sol.terminal_wealth
    d_ab = (v[0] - v[1]) / (10 * (1.2 - 1.05))
    d_bc = (v[1] - v[2]) / (10 * (1.05 - 0.9))
    d_ac = (v[0] - v[2]) / (10 * (1.2 - 0.9))
    assert d_ab == pytest.approx(d_bc, rel=1e-7)
    assert d_ab == pytest.approx(d_ac, rel=1e-7)
    _, deltas, report = trinomial_wealth_and_delta(p, sol.terminal_wealth)
    assert report.ok and report.worst_gap <= 1e-7
    assert deltas[""] == pytest.approx(d_ac, rel=1e-12)


@pytest.mark.parametrize("utility", [Utility.log(), Utility.power(0.5), Utility.exponential(0.02)],
                         ids=lambda u: u.describe())
def test_forward_simulation_reproduces_terminal_wealth(tri_market, utility):
    rng = np.random.default_rng(8)
    nu = _product_nu(tri_market, rng)
    sol = solve_lambda_system(tri_market, utility, nu)
    wealth, deltas, report = trinomial_wealth_and_delta(tri_market, sol.terminal_wealth)
    assert report.ok
    assert wealth[""] == pytest.approx(tri_market.v, rel=1e-9)
    sim = simulate_trinomial_strategy(tri_market, deltas)
    for path, value in sim.items():
        assert value == pytest.approx(sol.terminal_wealth[path_index(path)], rel=1e-7)


def test_non_product_anticipation_fails_replication_loudly(tri_market):
    # the product-measure budgets are a relaxation of attainability; a
    # generic path anticipation solves the system but is not replicable,
    # and the check must say so instead of guessing a pair
    rng = np.random.default_rng(10)
    nu = rng.dirichlet(np.ones(9))
    nu = np.maximum(nu, 1e-3)
    nu /= nu.sum()
    sol = solve_lambda_system(tri_market, Utility.log(), nu)
    assert sol.max_residual <= 1e-8 * tri_market.v
    with pytest.raises(ReplicationError, match="node"):
        trinomial_wealth_and_delta(tri_market, sol.terminal_wealth)


def test_constant_terminal_wealth_needs_no_hedging(tri_market):
    flat = np.full(9, tri_market.v * tri_market.rho**2)
    _, deltas, report = trinomial_wealth_and_delta(tri_market, flat)
    assert report.ok
    assert all(d == pytest.approx(0.0, abs=1e-14) for d in deltas.values())


# ---------------------------------------------------------------------------
# budget equivalence and value bounds
# ---------------------------------------------------------------------------

def test_budget_equivalence_both_directions(tri_market):
    rng = np.random.default_rng(12)
    nu = _product_nu(tri_market, rng)
    sol = solve_lambda_system(tri_market, Utility.log(), nu)
    pm = product_measures(extremal_measures(tri_market), 2)
    w_mat = pm.matrix()
    disc = tri_market.rho ** (-2)
    budgets = w_mat @ (disc * sol.terminal_wealth)
    for _ in range(100):
        c = rng.dirichlet(np.ones(4))
        combo = float(c @ budgets)
        assert combo == pytest.approx(tri_market.v, rel=1e-10)
    # converse: violate one budget, random combinations must notice
    bad = sol.terminal_wealth.copy()
    bad[0] *= 1.5
    bad_budgets = w_mat @ (disc * bad)
    detected = 0
    for _ in range(100):
        c = rng.dirichlet(np.ones(4))
        if abs(float(c @ bad_budgets) - tri_market.v) > 1e-6:
            detected += 1
    assert detected == 100


def test_value_dominates_risk_free(tri_market):
    rng = np.random.default_rng(14)
    for utility in (Utility.log(), Utility.power(0.5), Utility.exponential(0.02)):
        nu = _product_nu(tri_market, rng)
        sol = solve_lambda_system(tri_market, utility, nu)
        riskfree = utility.evaluate(tri_market.v * tri_market.rho**2)
        assert sol.value >= riskfree - 1e-10


def test_value_bounded_by_two_branch_market_when_middle_shunned():
    p = TrinomialParams(s=10.0, a=1.2, b=1.05, c=0.9, r=0.02, n_periods=2, v=100.0)
    eps = 1e-8
    nu = np.full(9, eps / 5)
    for path in ("uu", "ud", "du", "dd"):
        nu[path_index(path)] = (1 - eps) / 4
    nu /= nu.sum()
    sol = solve_lambda_system(p, Utility.log(), nu, tol=1e-12)
    binom = BinomialParams(s=10.0, h=0.2, k=0.1, r=0.02, n_periods=2, v=100.0)
    bound = value_of_information(binom, Utility.log(), (0.25, 0.5, 0.25))
    assert sol.value <= bound.value + 1e-3


# ---------------------------------------------------------------------------
# anticipation plumbing and caps
# ---------------------------------------------------------------------------

def test_terminal_lift_spreads_by_reference_measure(tri_market):
    nu_term = np.array([0.1, 0.15, 0.2, 0.25, 0.2, 0.1])
    nu_paths = lift_terminal_anticipation(tri_market, nu_term)
    assert nu_paths.sum() == pytest.approx(1.0, abs=1e-12)
    from weakinfo.markets import TrinomialLattice

    lattice = TrinomialLattice(tri_market)
    got = np.zeros(6)
    for path in path_strings(2):
        got[lattice.terminal_index(*lattice.path_terminal(path))] += nu_paths[path_index(path)]
    assert np.allclose(got, nu_term, atol=1e-12)


def test_path_anticipation_validation(tri_market):
    with pytest.raises(ValueError):
        solve_lambda_system(tri_market, Utility.log(), np.full(8, 1 / 8))
    bad = np.full(9, 1 / 9)
    bad[0] = 0.0
    bad[1] += 1 / 9
    with pytest.raises(Exception):
        solve_lambda_system(tri_market, Utility.log(), bad)


def test_path_anticipation_input_forms_agree(tri_market):
    weights = [F(k, 45) for k in range(1, 10)]
    forms = [
        weights,
        [float(w) for w in weights],
        np.array(weights, dtype=float),
        dict(zip(path_strings(2), weights)),
    ]
    arrays = [coerce_path_anticipation(tri_market, nu) for nu in forms]
    for arr in arrays:
        assert arr.dtype == np.float64
        assert np.array_equal(arr, arrays[0])


def test_solution_does_not_alias_the_anticipation(tri_market):
    nu = np.array([F(k, 45) for k in range(1, 10)], dtype=float)
    sol = solve_lambda_system(tri_market, Utility.log(), nu)
    before = (sol.nu.copy(), sol.lam.copy(), sol.terminal_wealth.copy())
    nu[:] = 1 / 9
    assert all(np.array_equal(a, b) for a, b in zip(before, (sol.nu, sol.lam, sol.terminal_wealth)))
    assert not np.array_equal(sol.nu, nu)


def test_newton_converging_on_its_last_allowed_step_returns():
    # the last step reaches the tolerance: the solve must not raise
    params = TrinomialParams(s=20, a=1.2, b=1.01, c=0.85, r=0.02, n_periods=4, v=100)
    nu = lift_terminal_anticipation(params, [1 / 15] * 15)
    sol = solve_lambda_system(params, Utility.log(), nu)
    assert sol.iterations > 0
    capped = solve_lambda_system(params, Utility.log(), nu, max_iter=sol.iterations)
    assert capped.iterations == sol.iterations
    assert np.array_equal(capped.lam, sol.lam)
    with pytest.raises(ConvergenceError, match="after %d iterations" % (sol.iterations - 1)):
        solve_lambda_system(params, Utility.log(), nu, max_iter=sol.iterations - 1)


def test_period_cap_is_enforced():
    big = TrinomialParams(s=10.0, a=1.2, b=1.05, c=0.9, r=0.0, n_periods=13, v=100.0)
    with pytest.raises(AdmissibilityError, match="capped"):
        solve_lambda_system(big, Utility.log(), np.full(3**13, 1.0 / 3**13))


# ---------------------------------------------------------------------------
# the Newton start on product anticipations
# ---------------------------------------------------------------------------

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def tri_problems(draw, periods=st.integers(2, 6), wealth=(50.0, 500.0)):
    """(params, utility, rng): an arbitrage-free market and a utility.

    Markets are drawn as the benchmark draws them, with v in `wealth`.
    Exponential risk aversion is drawn relative to v, so alpha * v lies in
    [0.5, 5].
    """
    n = draw(periods)
    family = draw(st.sampled_from(["log", "power-", "power+", "exponential"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = float(rng.uniform(0.0, 0.04))
    a = 1 + r + float(rng.uniform(0.05, 0.3))
    c = 1 + r - float(rng.uniform(0.05, 0.3))
    b = c + float(rng.uniform(0.2, 0.8)) * (a - c)
    v = float(rng.uniform(*wealth))
    params = TrinomialParams(s=float(rng.uniform(5.0, 50.0)), a=a, b=b, c=c, r=r,
                             n_periods=n, v=v)
    utility = {
        "log": Utility.log,
        "power-": lambda: Utility.power(float(rng.uniform(-2.0, -0.2))),
        "power+": lambda: Utility.power(float(rng.uniform(0.1, 0.9))),
        "exponential": lambda: Utility.exponential(float(rng.uniform(0.5, 5.0)) / v),
    }[family]()
    return params, utility, rng


@SETTINGS
@given(tri_problems())
def test_product_anticipation_starts_at_the_solution(problem):
    params, utility, rng = problem
    sol = solve_lambda_system(params, utility, _product_nu(params, rng))
    assert sol.start == "product"
    assert sol.iterations <= 1
    assert sol.max_residual <= 1e-10 * max(1.0, params.v)


@settings(SETTINGS, max_examples=20)
@given(tri_problems(periods=st.integers(1, 2), wealth=(0.5, 5.0)))
def test_small_product_solutions_match_direct_oracle(problem):
    # SLSQP stops on absolute changes, so the oracle needs utility values
    # of order one: power utility with gamma < 0 at v ~ 100 gives ~1e-5
    params, utility, rng = problem
    n = params.n_periods
    nu = _product_nu(params, rng)
    sol = solve_lambda_system(params, utility, nu)
    assert sol.start == ("product" if n == 2 else "uniform")
    pm = product_measures(extremal_measures(params), n)
    x, value = maximize_terminal_claim(
        pm.matrix() / params.rho**n, np.full(2**n, params.v), nu, utility,
        positive=utility.requires_positive_wealth,
        x0=np.full(3**n, params.v * params.rho**n),
    )
    assert sol.value == pytest.approx(value, abs=1e-6)
    assert np.allclose(sol.terminal_wealth, x, rtol=1e-4)


@SETTINGS
@given(tri_problems(), st.sampled_from(["lift", "dirichlet", "nudged"]))
def test_non_product_anticipations_start_uniform(problem, kind):
    params, utility, rng = problem
    n = params.n_periods
    if kind == "lift":
        nu = lift_terminal_anticipation(params, rng.dirichlet(np.full((n + 1) * (n + 2) // 2, 2.0)))
    elif kind == "dirichlet":
        nu = rng.dirichlet(np.full(3**n, 2.0))
    else:
        nu = _product_nu(params, rng)
        nu[rng.integers(3**n)] *= 1 + 1e-6
    nu = nu / nu.sum()
    shape, start = _start_shape(params, utility, nu, n, 1e-10)
    assert start == "uniform"
    assert np.array_equal(shape, np.full(2**n, 1.0 / 2**n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mode_contractions_match_the_dense_product_matrix(n):
    p = TrinomialParams(s=10.0, a=1.2, b=1.05, c=0.9, r=0.02, n_periods=n, v=100.0)
    pair = extremal_measures(p)
    w, dense = pair.as_matrix(), product_measures(pair, n).matrix()
    rng = np.random.default_rng(n)
    lam, f = rng.normal(size=2**n), rng.normal(size=3**n)
    assert np.allclose(_mode_contract(lam, w.T, n), dense.T @ lam, rtol=1e-13, atol=1e-15)
    assert np.allclose(_mode_contract(f, w, n), dense @ f, rtol=1e-13, atol=1e-15)


# the inputs of two defects of the uniform Newton start, pinned in
# perfbench/test_perfbench.py as strict xfails


def test_steep_positive_gamma_power_product_solve_converges():
    params = TrinomialParams(
        s=14.89390333134288, a=1.2821280627033511, b=1.1074037317088719,
        c=0.8621840884795523, r=0.027075782897435802, n_periods=10, v=375.3470924483915,
    )
    nu = product_path_anticipation(params, [
        [0.049180114947399746, 0.14545432015454363, 0.8053655648980566],
        [0.04986315582427095, 0.5463026675910292, 0.4038341765846999],
        [0.7635302403407539, 0.04884359307751865, 0.1876261665817274],
        [0.26076014998962505, 0.498208981729507, 0.241030868280868],
        [0.6288290309270014, 0.056840828160847595, 0.314330140912151],
        [0.5588287084618208, 0.3112679240269992, 0.12990336751117998],
        [0.27032204852152514, 0.04876642071474537, 0.6809115307637297],
        [0.6415631720622549, 0.22966135978131816, 0.12877546815642704],
        [0.5069849860740354, 0.40469815160270595, 0.08831686232325861],
        [0.8234225466198669, 0.07911598333390979, 0.0974614700462234],
    ])
    sol = solve_lambda_system(params, Utility.power(0.6469460711626689), nu)
    assert sol.max_residual <= 1e-10 * max(1.0, params.v)


def test_product_exponential_claim_replicates_at_nine_periods():
    params = TrinomialParams(
        s=9.632642618300247, a=1.0776891033415688, b=0.8295196412304219,
        c=0.7503097012068212, r=0.016957077306040312, n_periods=9, v=56.37702371400742,
    )
    nu = product_path_anticipation(params, [
        [0.3391793545673711, 0.304061797186508, 0.356758848246121],
        [0.48782878459135454, 0.4629165738485884, 0.049254641560056975],
        [0.15074905211408202, 0.04947395142022492, 0.799776996465693],
        [0.18142274017038576, 0.6486692960437815, 0.16990796378583273],
        [0.06298310173780415, 0.5104533445142964, 0.42656355374789956],
        [0.4055102260426038, 0.31222262917002047, 0.28226714478737563],
        [0.4967741376095068, 0.3130441941744344, 0.19018166821605884],
        [0.30835736839964706, 0.3758627314897157, 0.3157799001106372],
        [0.2776074295610889, 0.1524724769552587, 0.5699200934836525],
    ])
    sol = solve_lambda_system(params, Utility.exponential(0.05106631376045113), nu)
    _, _, report = trinomial_wealth_and_delta(params, sol.terminal_wealth)
    assert report.ok
