"""General-market per-period passes against the per-node reference loops.

`validate_no_arbitrage`, `leaf_measure` and `solve_complete_market` solve
the one-period martingale weights once per period and replicate with one
batched solve per depth.  The loops in `oracles.py` solve at every node.
Both must give the same keys in the same order, the same values to
rounding, and the same errors naming the same node.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    leaf_measure_loop,
    solve_complete_market_loop,
    transition_probabilities_loop,
    validate_no_arbitrage_loop,
)
from weakinfo import (
    AdmissibilityError,
    CompleteMarket,
    Utility,
    solve_complete_market,
    validate_no_arbitrage,
)
from weakinfo.complete import leaf_measure

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

BASE = [[1.05, 1.30, 0.80], [1.05, 0.95, 1.25], [1.05, 0.75, 1.05]]
# the second asset beats the bond in every state: no positive measure
ARBITRAGE = [[1.05, 1.10, 0.90], [1.05, 1.06, 1.20], [1.05, 1.07, 1.10]]


def _rel(got, want) -> float:
    return abs(got - want) / max(abs(got), abs(want), 1e-300)


def _conditioning_slack(market) -> float:
    """8 n kappa eps / q_min: how far two correct routes may drift apart.

    The per-period route solves F_n[:, cols]^T q = (1+r) 1 and the per-node
    route D^T q = (1+r) s with D = F_n[:, cols] diag(s).  Each lands within
    about kappa eps of the exact weights of the rounded factors in norm,
    where kappa is the condition number of its matrix, so a weight q_j is
    off by about kappa eps / q_j relative, and a leaf multiplies n weights.
    The flat bounds (1e-13 on the leaf measure, 1e-12 on lam, 1e-9 on
    wealth) hold while the matrices are well conditioned; random factors
    reach cond ~ 1e7.
    """
    kappa, q_min = 1.0, 1.0
    for n, f in enumerate(market.factors):
        kappa = max(kappa, np.linalg.cond(f[:, market.replication_assets(n)]),
                    *(np.linalg.cond(market.price_matrix(node)) for node in market.nodes(n)))
        q_min = min(q_min, transition_probabilities_loop(market, (0,) * n).min())
    return 8 * market.n_periods * kappa * np.finfo(float).eps / q_min


@st.composite
def markets(draw):
    """Arbitrage-free market with M in {2,3,4}, d in {M, M+1}, n <= 4.

    Each period draws a positive martingale vector q and scales every risky
    column so that q @ column = 1+r; with d = M+1 the extra asset is a
    redundant one that the consistency check must accept.
    """
    m = draw(st.sampled_from([2, 3, 4]))
    d = m + draw(st.integers(0, 1))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = float(rng.uniform(0.0, 0.05))
    rho = 1 + r
    factors = []
    for _ in range(n):
        q = rng.dirichlet(np.full(m, 3.0))
        f = np.empty((m, d))
        f[:, 0] = rho
        for col in range(1, d):
            g = rng.uniform(0.7, 1.4, m)
            f[:, col] = g * rho / float(q @ g)
        factors.append(f)
    v = float(rng.uniform(50.0, 500.0))
    market = CompleteMarket(rng.uniform(5.0, 50.0, d), factors, r=r, v=v)
    leaves = list(market.leaves())
    w = rng.dirichlet(np.full(len(leaves), 2.0))
    nu = dict(zip(leaves, (w / w.sum()).tolist()))
    utility = draw(st.sampled_from([
        Utility.log(),
        Utility.power(-1.5),
        Utility.power(0.5),
        Utility.exponential(2.0 / (v * rho**n)),
    ]))
    return market, utility, nu


@SETTINGS
@given(markets())
def test_solve_matches_per_node_loop(case):
    market, utility, nu = case
    sol = solve_complete_market(market, utility, nu)
    lam, wealth, deltas = solve_complete_market_loop(market, utility, nu)
    slack = _conditioning_slack(market)
    assert _rel(sol.lam, lam) <= max(1e-12, slack), (sol.lam, lam, slack)
    assert _rel(sol.wealth[()], market.v) <= 1e-12
    assert list(sol.wealth) == list(wealth)
    assert list(sol.deltas) == list(deltas)
    assert list(sol.terminal_wealth) == list(market.leaves())
    for node, want in wealth.items():
        assert _rel(sol.wealth[node], want) <= max(1e-9, slack), (node, slack)
    for node, delta in sol.deltas.items():
        assert delta.shape == (market.m_states,)
        d_mat = market.price_matrix(node)
        children = np.array([sol.wealth[node + (j,)] for j in range(market.m_states)])
        scale = np.maximum(np.abs(children), np.abs(d_mat) @ np.abs(delta))
        assert np.all(np.abs(d_mat @ delta - children) <= 1e-9 * scale), node


@SETTINGS
@given(markets())
def test_leaf_measure_and_validation_match_per_node_loop(case):
    market = case[0]
    got, want = leaf_measure(market), leaf_measure_loop(market)
    assert list(got) == list(want)
    tol = max(1e-13, _conditioning_slack(market))
    for leaf, p in want.items():
        assert type(got[leaf]) is float
        assert _rel(got[leaf], p) <= tol, (leaf, got[leaf], p, tol)
    assert validate_no_arbitrage(market) == validate_no_arbitrage_loop(market)


@SETTINGS
@given(markets())
def test_level_prices_equal_prices_at(case):
    market = case[0]
    for n in range(market.n_periods + 1):
        level = market.level_prices(n)
        nodes = list(market.nodes(n))
        assert level.shape == (len(nodes), market.d_assets)
        for row, node in zip(level, nodes):
            assert np.array_equal(row, market.prices_at(node))


def _arbitrage_in_period_two():
    return CompleteMarket([1.0, 10.0, 5.0], [BASE, ARBITRAGE], r=0.05, v=100.0)


def _uniform_nu(market):
    leaves = list(market.leaves())
    return {leaf: 1.0 / len(leaves) for leaf in leaves}


def test_arbitrage_in_a_later_period_is_reported_like_the_loop():
    market = _arbitrage_in_period_two()
    report = validate_no_arbitrage(market)
    assert not report.ok
    assert report == validate_no_arbitrage_loop(market)
    assert report.violations == ("no strictly positive martingale measure at node (0,)",)
    with pytest.raises(AdmissibilityError) as exc:
        solve_complete_market(market, Utility.log(), _uniform_nu(market))
    assert str(exc.value) == report.violations[0]
    with pytest.raises(AdmissibilityError):
        leaf_measure(market)


def test_redundant_asset_inconsistent_only_in_a_later_period():
    # asset 2 copies asset 1 in period 1.  In period 2 it returns half the
    # bond's return plus 0.6 times asset 1's: still redundant, but its
    # expected gross return is 1.1(1+r), not 1+r.
    consistent = [row[:2] + [row[1]] + row[2:] for row in BASE]
    drifted = [row[:2] + [0.5 * row[0] + 0.6 * row[1]] + row[2:] for row in BASE]
    market = CompleteMarket([1.0, 10.0, 20.0, 5.0], [consistent, drifted], r=0.05, v=100.0)
    assert market.replication_assets(1) == [0, 1, 3]
    report = validate_no_arbitrage(market)
    assert not report.ok
    assert report == validate_no_arbitrage_loop(market)
    assert report.violations == ("redundant assets priced inconsistently at node (0,)",)
    with pytest.raises(AdmissibilityError) as exc:
        solve_complete_market(market, Utility.log(), _uniform_nu(market))
    assert str(exc.value) == report.violations[0]


def test_inconsistency_below_the_absolute_tolerance_names_a_later_node():
    # asset 3 copies asset 2 and, in period 2, drifts by 2.05e-9 in expected
    # gross return.  That fails rtol=1e-9 plus atol=1e-12 only where its
    # price exceeds 1e-3, which is at node (1,) but not at node (0,).
    rho, drift = 1.05, 2.05e-9
    first = [row + [row[2]] for row in BASE]
    second = [row + [row[2] * (1 + drift / rho)] for row in BASE]
    market = CompleteMarket([1.0, 10.0, 5.0, 1e-3 / 0.9], [first, second], r=0.05, v=100.0)
    assert market.replication_assets(1) == [0, 1, 2]
    report = validate_no_arbitrage(market)
    assert report == validate_no_arbitrage_loop(market)
    assert report.violations == ("redundant assets priced inconsistently at node (1,)",)


def test_transition_probabilities_names_its_own_node():
    market = _arbitrage_in_period_two()
    np.testing.assert_allclose(
        market.transition_probabilities(()), transition_probabilities_loop(market, ()),
        rtol=1e-14, atol=0,
    )
    for node in ((1,), (2,)):
        with pytest.raises(AdmissibilityError) as got:
            market.transition_probabilities(node)
        with pytest.raises(AdmissibilityError) as want:
            transition_probabilities_loop(market, node)
        assert str(got.value) == str(want.value)
        assert str(node) in str(got.value)
