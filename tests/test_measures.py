from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest

from weakinfo import (
    AdmissibilityError,
    Anticipation,
    BinomialMeasureTree,
    BinomialParams,
    DomainError,
    binomial_transition_formula,
    minimal_measure,
    radon_nikodym,
    risk_neutral_binomial,
    verify_minimality,
)

GOLDEN_NU = (F(1, 4), F(1, 2), F(1, 8), F(1, 8))


def _random_nu(rng, size, floor=1e-4):
    w = rng.dirichlet(np.ones(size))
    w = np.maximum(w, floor)
    return tuple(w / w.sum())


# ---------------------------------------------------------------------------
# risk-neutral measure
# ---------------------------------------------------------------------------

def test_risk_neutral_transitions(fig_market):
    tree = risk_neutral_binomial(fig_market)
    assert tree.up[0][0] == pytest.approx(0.051 / 0.109, rel=1e-12)
    assert tree.up[0][0] == pytest.approx(0.467890, abs=1e-6)
    assert tree.martingale_gap(fig_market) <= 1e-10


def test_risk_neutral_symmetric_case():
    p = BinomialParams(s=10.0, h=0.05, k=0.05, r=0.0, n_periods=1, v=1.0)
    assert risk_neutral_binomial(p).up[0][0] == pytest.approx(0.5, abs=1e-15)


def test_risk_neutral_sweep_parameters_exact():
    p = BinomialParams(
        s=F(20), h=F(8, 100), k=F(4, 100), r=F(3, 100), n_periods=5, v=F(200)
    )
    tree = risk_neutral_binomial(p)
    assert tree.up[0][0] == F(7, 12)
    assert tree.martingale_gap(p) == 0.0


def test_risk_neutral_requires_no_arbitrage():
    bad = BinomialParams(s=20.0, h=0.02, k=0.019, r=0.032, n_periods=2, v=200.0)
    with pytest.raises(AdmissibilityError):
        risk_neutral_binomial(bad)


# ---------------------------------------------------------------------------
# minimal measure
# ---------------------------------------------------------------------------

def test_golden_minimal_measure_tree(fig_market_exact):
    base = risk_neutral_binomial(fig_market_exact)
    tree = minimal_measure(base, GOLDEN_NU)
    assert tree.up[0][0] == F(15, 24)
    assert 1 - tree.up[0][0] == F(9, 24)
    assert tree.up[1] == (F(2, 3), F(5, 9))
    assert tuple(1 - x for x in tree.up[1]) == (F(1, 3), F(4, 9))
    assert tree.up[2] == (F(3, 5), F(4, 5), F(1, 4))
    assert tuple(1 - x for x in tree.up[2]) == (F(2, 5), F(1, 5), F(3, 4))
    # terminal marginal is exactly nu
    assert tuple(tree.terminal_distribution()) == GOLDEN_NU


def test_minimal_measure_of_risk_neutral_is_identity(fig_market):
    base = risk_neutral_binomial(fig_market)
    nu = base.terminal_distribution()
    tree = minimal_measure(base, nu)
    for n in range(3):
        for i in range(n + 1):
            assert tree.up[n][i] == pytest.approx(base.up[n][i], abs=1e-14)


def test_minimal_measure_point_mass_pruning(fig_market):
    base = risk_neutral_binomial(fig_market)
    nu = Anticipation.of((1.0, 0.0, 0.0, 0.0), allow_zero=True)
    tree = minimal_measure(base, nu)
    # conditioning on the single all-up endpoint forces the up spine
    for n in range(3):
        assert tree.up[n][0] == pytest.approx(1.0, abs=1e-14)
    term = tree.terminal_distribution()
    assert term[0] == pytest.approx(1.0, abs=1e-14)


def test_strict_mode_rejects_zero_entries():
    with pytest.raises(ValueError, match="zero"):
        Anticipation.of((0.5, 0.5, 0.0))


def test_terminal_marginal_exactness_float(fig_market):
    rng = np.random.default_rng(3)
    base = risk_neutral_binomial(fig_market)
    for _ in range(25):
        nu = _random_nu(rng, 4)
        tree = minimal_measure(base, nu)
        got = tree.terminal_distribution()
        assert np.allclose(got, nu, rtol=0, atol=1e-12)


def test_minimal_measure_dimension_mismatch(fig_market):
    base = risk_neutral_binomial(fig_market)
    with pytest.raises(ValueError, match="terminal"):
        minimal_measure(base, (0.5, 0.5))


# ---------------------------------------------------------------------------
# closed-form transition formula
# ---------------------------------------------------------------------------

def test_transition_formula_golden_root():
    up, down = binomial_transition_formula(3, 0, GOLDEN_NU, n_periods=3)
    assert up == F(15, 24)
    assert down == F(9, 24)


def test_transition_formula_uniform_root():
    up, _ = binomial_transition_formula(3, 0, (0.25,) * 4, n_periods=3)
    assert up == pytest.approx(0.5, abs=1e-15)


def test_transition_formula_one_period_degenerate():
    up, down = binomial_transition_formula(1, 0, (0.3, 0.7), n_periods=1)
    assert up == pytest.approx(0.3, abs=1e-15)
    assert down == pytest.approx(0.7, abs=1e-15)


def test_transition_formula_index_errors():
    with pytest.raises(IndexError):
        binomial_transition_formula(0, 0, (0.5, 0.5), n_periods=1)
    with pytest.raises(IndexError):
        binomial_transition_formula(1, 3, (0.25,) * 4, n_periods=3)


def test_transition_formula_matches_minimal_measure_everywhere():
    rng = np.random.default_rng(17)
    checked = 0
    for trial in range(100):
        n = int(rng.integers(1, 9))
        p = BinomialParams(s=20.0, h=0.09, k=0.019, r=0.032, n_periods=n, v=200.0)
        base = risk_neutral_binomial(p)
        nu = _random_nu(rng, n + 1)
        tree = minimal_measure(base, nu)
        for time in range(n):
            l = n - time
            for i in range(time + 1):
                up, _ = binomial_transition_formula(l, i, nu, n_periods=n)
                assert up == pytest.approx(tree.up[time][i], abs=1e-10)
                checked += 1
    assert checked > 100


def test_measure_tree_rejects_nan_and_out_of_range_transitions():
    for bad in (float("nan"), -0.1, 1.5, F(3, 2)):
        with pytest.raises(ValueError, match=r"transition probability outside \[0, 1\]"):
            BinomialMeasureTree([[0.5], [0.5, bad]])
    for edge in (0, 1, 0.0, 1.0, F(0), F(1)):
        assert BinomialMeasureTree([[edge]]).up == ((edge,),)


# ---------------------------------------------------------------------------
# Radon-Nikodym derivatives
# ---------------------------------------------------------------------------

def test_ratio_of_measure_with_itself(fig_market):
    base = risk_neutral_binomial(fig_market)
    ratio = radon_nikodym(base, base)
    assert all(v == pytest.approx(1.0, abs=1e-15) for v in ratio.per_path.values())
    assert ratio.terminal_measurable


def test_one_period_ratio_values(fig_market_1p):
    base = risk_neutral_binomial(fig_market_1p)
    tree = minimal_measure(base, (0.5, 0.5))
    ratio = radon_nikodym(tree, base)
    # oracle: nu_i / p_i per branch with p_up = 51/109
    assert ratio.per_path["u"] == pytest.approx(0.5 * 109 / 51, rel=1e-12)
    assert ratio.per_path["d"] == pytest.approx(0.5 * 109 / 58, rel=1e-12)
    assert ratio.per_path["u"] == pytest.approx(1.06863, abs=1e-5)
    assert ratio.expectation_under_denominator == pytest.approx(1.0, abs=1e-10)


def test_ratio_terminal_measurable_exact(fig_market_exact):
    base = risk_neutral_binomial(fig_market_exact)
    tree = minimal_measure(base, GOLDEN_NU)
    ratio = radon_nikodym(tree, base)
    assert ratio.terminal_measurable
    term = base.terminal_distribution()
    for i in range(4):
        assert ratio.terminal_values[i] == GOLDEN_NU[i] / term[i]
    assert ratio.expectation_under_denominator == pytest.approx(1.0, abs=1e-12)


def test_ratio_zero_denominator_reports_path(fig_market):
    base = risk_neutral_binomial(fig_market)
    spike = minimal_measure(base, Anticipation.of((1.0, 0.0, 0.0, 0.0), allow_zero=True))
    with pytest.raises(DomainError, match="ddd"):
        radon_nikodym(base, spike)


# ---------------------------------------------------------------------------
# minimality of the bridge mixture
# ---------------------------------------------------------------------------

def test_minimality_one_period_is_singleton(fig_market_1p):
    base = risk_neutral_binomial(fig_market_1p)
    report = verify_minimality(base, (0.6, 0.4), n_samples=200, seed=1)
    assert report.ok
    for gap in report.worst_gap.values():
        assert abs(gap) <= 1e-12  # every candidate equals the minimal measure


def test_minimality_two_period_uniform():
    p = BinomialParams(s=20.0, h=0.09, k=0.019, r=0.032, n_periods=2, v=200.0)
    base = risk_neutral_binomial(p)
    report = verify_minimality(base, (1 / 3,) * 3, n_samples=2000, seed=7)
    assert report.ok
    assert report.n_samples >= 2000
    for gap in report.worst_gap.values():
        assert gap >= -1e-9


def test_minimality_includes_the_minimal_measure_itself(fig_market):
    base = risk_neutral_binomial(fig_market)
    nu = (0.2, 0.4, 0.3, 0.1)
    report = verify_minimality(base, nu, n_samples=500, seed=5)
    assert report.ok
    # the sampled family contains points arbitrarily close to the optimum,
    # so the best observed gap is essentially zero from above
    for gap in report.worst_gap.values():
        assert -1e-9 <= gap
