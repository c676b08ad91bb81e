"""Per-period array passes against the per-path reference loops.

`simulate_strategy`, `radon_nikodym`, `trinomial_wealth_and_delta`,
`simulate_trinomial_strategy` and `lift_terminal_anticipation` work one
period at a time as array passes.  The loops in `oracles.py` walk one path
and one step at a time in plain Python; both must give the same keys in
the same order, values within 1e-12 relative (equal when exact), and the
same errors.  The trees come back as read-only `LevelView`s over the
per-depth arrays, which must behave as the oracles' dicts do.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    lift_terminal_anticipation_loop,
    radon_nikodym_loop,
    simulate_strategy_loop,
    simulate_trinomial_strategy_loop,
    trinomial_wealth_and_delta_loop,
)
from weakinfo import (
    BinomialMeasureTree,
    BinomialParams,
    DomainError,
    TrinomialParams,
    lift_terminal_anticipation,
    minimal_measure,
    radon_nikodym,
    risk_neutral_binomial,
    simulate_strategy,
    simulate_trinomial_strategy,
    trinomial_wealth_and_delta,
)
from weakinfo.markets import LevelView
from weakinfo.trinomial import ReplicationError, path_strings

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _same(got, want) -> bool:
    """Equal when exact, within 1e-12 relative for floats, NaN matches NaN."""
    if isinstance(got, F) or isinstance(want, F):
        return type(got) is type(want) and got == want
    if math.isnan(want):
        return math.isnan(got)
    return got == want or abs(got - want) <= 1e-12 * max(abs(got), abs(want))


def _assert_same_dict(got: dict, want: dict):
    assert list(got) == list(want)
    for key in want:
        assert _same(got[key], want[key]), (key, got[key], want[key])


def _outcome(fn, *args, **kwargs):
    """(result, None) or (None, (exception type, message))."""
    try:
        return fn(*args, **kwargs), None
    except (DomainError, ReplicationError) as exc:
        return None, (type(exc), str(exc))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def binomial_params(draw, max_periods=8):
    r = draw(st.floats(-0.05, 0.08))
    return BinomialParams(
        s=draw(st.floats(1.0, 100.0)),
        h=r + draw(st.floats(1e-3, 0.5)),
        k=max(-r, 0.0) + draw(st.floats(1e-3, 0.5)),
        r=r,
        n_periods=draw(st.integers(1, max_periods)),
        v=draw(st.floats(1.0, 1e4)),
    )


# transitions include 0 and 1 so that some paths get probability zero
_FLOAT_UP = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
_EXACT_UP = st.one_of(
    st.sampled_from([0, 1, F(1, 2)]),
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)


@st.composite
def measure_trees(draw, n, up):
    return BinomialMeasureTree(
        [[draw(up) for _ in range(level + 1)] for level in range(n)]
    )


@st.composite
def trinomial_params(draw, max_periods=6, exact=False):
    if exact:
        r = draw(st.fractions(0, F(1, 20), max_denominator=100))
        rho = 1 + r
        a = rho + draw(st.fractions(F(1, 100), F(1, 2), max_denominator=100))
        c = rho - draw(st.fractions(F(1, 100), F(1, 2), max_denominator=100))
        b = c + draw(st.fractions(F(1, 10), F(9, 10), max_denominator=100)) * (a - c)
        s, v = draw(st.integers(1, 100)), F(draw(st.integers(10, 1000)))
    else:
        r = draw(st.floats(0.0, 0.05))
        rho = 1 + r
        a = rho + draw(st.floats(0.01, 0.5))
        c = rho - draw(st.floats(0.01, 0.5))
        b = c + draw(st.floats(0.1, 0.9)) * (a - c)
        s, v = draw(st.floats(1.0, 100.0)), draw(st.floats(10.0, 1000.0))
    return TrinomialParams(
        s=s, a=a, b=b, c=c, r=r, n_periods=draw(st.integers(1, max_periods)), v=v
    )


def _replicable_claim(params, rng) -> np.ndarray:
    """Terminal wealth of a random self-financing strategy: replicable."""
    deltas = {
        prefix: float(rng.normal(0.0, 5.0))
        for depth in range(params.n_periods)
        for prefix in path_strings(depth)
    }
    claim = simulate_trinomial_strategy_loop(params, deltas)
    return np.array([float(claim[p]) for p in path_strings(params.n_periods)])


# ---------------------------------------------------------------------------
# binomial replay
# ---------------------------------------------------------------------------

@SETTINGS
@given(params=binomial_params(), seed=st.integers(0, 2**32 - 1),
       v0=st.one_of(st.none(), st.floats(1.0, 1e3)))
def test_simulate_strategy_matches_path_loop(params, seed, v0):
    rng = np.random.default_rng(seed)
    deltas = [rng.normal(0.0, 20.0, n + 1) for n in range(params.n_periods)]
    _assert_same_dict(
        simulate_strategy(params, deltas, v0), simulate_strategy_loop(params, deltas, v0)
    )


# ---------------------------------------------------------------------------
# path probabilities and Radon-Nikodym ratios
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("up", [_FLOAT_UP, _EXACT_UP], ids=["float", "exact"])
def test_path_probabilities_match_path_probability(up):
    @SETTINGS
    @given(data=st.data())
    def check(data):
        tree = data.draw(measure_trees(data.draw(st.integers(0, 8)), up))
        probs, downs = tree.path_probabilities()
        paths = list(tree.paths())
        assert len(probs) == len(downs) == len(paths)
        for path, prob, down in zip(paths, probs.tolist(), downs.tolist()):
            assert _same(prob, tree.path_probability(path))
            assert down == path.count("d")

    check()


@pytest.mark.parametrize("up", [_FLOAT_UP, _EXACT_UP], ids=["float", "exact"])
def test_radon_nikodym_matches_path_loop_on_random_trees(up):
    # random trees are mostly not terminal-measurable; zero transitions
    # exercise the DomainError path list
    @SETTINGS
    @given(data=st.data())
    def check(data):
        n = data.draw(st.integers(1, 8))
        p, q = data.draw(measure_trees(n, up)), data.draw(measure_trees(n, up))
        got, got_err = _outcome(radon_nikodym, p, q)
        want, want_err = _outcome(radon_nikodym_loop, p, q)
        assert got_err == want_err
        if want is None:
            return
        _assert_same_dict(got.per_path, want.per_path)
        assert got.terminal_measurable == want.terminal_measurable
        assert got.terminal_values == want.terminal_values
        assert _same(got.expectation_under_denominator, want.expectation_under_denominator)

    check()


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_radon_nikodym_matches_path_loop_on_minimal_measures(exact):
    # minimal measures have terminal-measurable densities, so this covers
    # the terminal_values branch
    @SETTINGS
    @given(data=st.data())
    def check(data):
        n = data.draw(st.integers(1, 8))
        if exact:
            params = BinomialParams(s=F(20), h=F(9, 100), k=F(19, 1000), r=F(4, 125),
                                    n_periods=n, v=F(200))
            raw = data.draw(st.lists(st.integers(1, 50), min_size=n + 1, max_size=n + 1))
            nu = tuple(F(x, sum(raw)) for x in raw)
        else:
            params = data.draw(binomial_params())
            params = BinomialParams(s=params.s, h=params.h, k=params.k, r=params.r,
                                    n_periods=n, v=params.v)
            raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n + 1, max_size=n + 1))
            nu = tuple(x / sum(raw) for x in raw[:-1])
            nu += (1.0 - sum(nu),)
        base = risk_neutral_binomial(params)
        tree = minimal_measure(base, nu)
        for p, q in ((tree, base), (base, tree)):
            got, want = radon_nikodym(p, q), radon_nikodym_loop(p, q)
            _assert_same_dict(got.per_path, want.per_path)
            assert got.terminal_measurable == want.terminal_measurable
            assert got.terminal_values == want.terminal_values
            assert _same(got.expectation_under_denominator,
                         want.expectation_under_denominator)

    check()


# ---------------------------------------------------------------------------
# trinomial hedge tree and replay
# ---------------------------------------------------------------------------

def _compare_hedge(params, terminal, rtol):
    got, got_err = _outcome(trinomial_wealth_and_delta, params, terminal, rtol=rtol)
    want, want_err = _outcome(trinomial_wealth_and_delta_loop, params, terminal, rtol=rtol)
    assert got_err == want_err
    # the report behind a ReplicationError: same worst node and gap
    full = trinomial_wealth_and_delta(params, terminal, rtol=math.inf)[2]
    ref = trinomial_wealth_and_delta_loop(params, terminal, rtol=math.inf)[2]
    assert full.worst_node == ref.worst_node
    assert _same(full.worst_gap, ref.worst_gap)
    if want is None:
        return None
    _assert_same_dict(got[0], want[0])
    _assert_same_dict(got[1], want[1])
    assert (got[2].ok, got[2].worst_node) == (want[2].ok, want[2].worst_node)
    assert _same(got[2].worst_gap, want[2].worst_gap)
    return got[1]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_trinomial_hedge_matches_node_loop(exact):
    @SETTINGS
    @given(params=trinomial_params(exact=exact), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["replicable", "near", "random", "nan"]))
    def check(params, seed, kind):
        rng = np.random.default_rng(seed)
        n_paths = 3**params.n_periods
        if kind == "random":
            terminal = rng.uniform(10.0, 1000.0, n_paths)
        else:
            terminal = _replicable_claim(params, rng)
        if kind == "near":
            # a replicable claim nudged on one path: the worst gap sits
            # at a node the nudge decides, well above rtol
            terminal[rng.integers(n_paths)] *= 1 + 1e-5
        if kind == "nan":
            terminal[rng.integers(n_paths)] = np.nan
        deltas = _compare_hedge(params, terminal, rtol=1e-7)
        if deltas is not None:
            _assert_same_dict(simulate_trinomial_strategy(params, deltas),
                              simulate_trinomial_strategy_loop(params, deltas))

    check()


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_simulate_trinomial_strategy_matches_path_loop(exact):
    @SETTINGS
    @given(params=trinomial_params(exact=exact), seed=st.integers(0, 2**32 - 1),
           v0=st.one_of(st.none(), st.floats(1.0, 1e3)))
    def check(params, seed, v0):
        rng = np.random.default_rng(seed)
        deltas = {
            prefix: (F(int(rng.integers(-50, 50)), 7) if exact else float(rng.normal(0, 5)))
            for depth in range(params.n_periods)
            for prefix in path_strings(depth)
        }
        _assert_same_dict(simulate_trinomial_strategy(params, deltas, v0),
                          simulate_trinomial_strategy_loop(params, deltas, v0))

    check()


def test_radon_nikodym_compares_exact_ratios_exactly():
    # the two one-down paths differ by 1e-15 relative: equal within the
    # float tolerance, but exact inputs must be compared exactly
    tiny = F(1, 10**15)
    p = BinomialMeasureTree([[F(1, 2)], [F(1, 2), F(1, 2) + tiny]])
    q = BinomialMeasureTree([[F(1, 2)], [F(1, 2), F(1, 2)]])
    got, want = radon_nikodym(p, q), radon_nikodym_loop(p, q)
    assert not want.terminal_measurable
    assert got.terminal_measurable == want.terminal_measurable
    assert got.terminal_values is None
    floats = radon_nikodym(
        BinomialMeasureTree([[0.5], [0.5, 0.5 + 1e-16]]),
        BinomialMeasureTree([[0.5], [0.5, 0.5]]),
    )
    assert floats.terminal_measurable


# ---------------------------------------------------------------------------
# the read-only views
# ---------------------------------------------------------------------------

def _check_view(view, want: dict):
    """A string-keyed LevelView against its per-path oracle dict."""
    assert isinstance(view, LevelView) and isinstance(view, Mapping)
    assert list(view) == list(want) and len(view) == len(want)
    copy = dict(view)
    _assert_same_dict(copy, want)
    assert view == copy and copy == view
    assert repr(view) == "LevelView(%r)" % copy
    # items() and values() read the level arrays; they must match lookups
    typed = [(k, type(x), x) for k, x in view.items()]
    assert typed == [(k, type(view[k]), view[k]) for k in view]
    assert list(view.values()) == [x for _, _, x in typed]
    key = max(want, key=len)
    assert key in view
    changed = {**copy, key: "changed"}
    assert view != changed and changed != view
    for bad in ("u" * (len(key) + 1), "x" + key[1:], tuple(key), 0):
        assert bad not in view
        with pytest.raises(KeyError):
            view[bad]
    with pytest.raises(TypeError):
        view[key] = 0
    with pytest.raises(TypeError):
        del view[key]


@SETTINGS
@given(params=binomial_params(), seed=st.integers(0, 2**32 - 1))
def test_binomial_views_behave_as_the_oracle_dicts(params, seed):
    rng = np.random.default_rng(seed)
    deltas = [rng.normal(0.0, 20.0, n + 1) for n in range(params.n_periods)]
    replay = simulate_strategy(params, deltas)
    _check_view(replay, simulate_strategy_loop(params, deltas))
    assert all(type(x) is float for x in replay.values())
    base = risk_neutral_binomial(params)
    nu = [1.0 / (params.n_periods + 1)] * (params.n_periods + 1)
    tree = minimal_measure(base, nu)
    _check_view(radon_nikodym(tree, base).per_path, radon_nikodym_loop(tree, base).per_path)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_trinomial_views_behave_as_the_oracle_dicts(exact):
    @SETTINGS
    @given(params=trinomial_params(exact=exact), seed=st.integers(0, 2**32 - 1))
    def check(params, seed):
        terminal = _replicable_claim(params, np.random.default_rng(seed))
        wealth, deltas, _ = trinomial_wealth_and_delta(params, terminal, rtol=math.inf)
        want_wealth, want_deltas, _ = trinomial_wealth_and_delta_loop(
            params, terminal, rtol=math.inf
        )
        _check_view(wealth, want_wealth)
        _check_view(deltas, want_deltas)
        replay = simulate_trinomial_strategy(params, deltas)
        _check_view(replay, simulate_trinomial_strategy_loop(params, deltas))
        from_dict = simulate_trinomial_strategy(params, dict(deltas))
        typed = lambda view: [(k, type(x), x) for k, x in view.items()]
        assert typed(from_dict) == typed(replay)

    check()


@SETTINGS
@given(m=st.integers(2, 4), depths=st.lists(st.integers(0, 4), min_size=1, max_size=3,
                                            unique=True), width=st.integers(0, 3))
def test_tuple_views_key_states_in_base_m(m, depths, width):
    # width 0 gives scalar levels, otherwise rows of that many holdings
    levels = {}
    for depth in depths:
        values = np.arange(m**depth * max(width, 1), dtype=float) + 10.0 * depth
        levels[depth] = values.reshape(m**depth, width) if width else values
    view = LevelView(levels, m)
    want = {
        node: levels[depth][i] if width else levels[depth].item(i)
        for depth in depths
        for i, node in enumerate(itertools.product(range(m), repeat=depth))
    }
    assert list(view) == list(want) and len(view) == len(want)
    assert all(np.array_equal(view[node], value) for node, value in want.items())
    assert all(np.array_equal(value, want[node]) for node, value in view.items())
    assert all(type(x) is type(y) for x, y in zip(view.values(), want.values()))
    if not width:
        assert view == want and want == view
    deepest = max(depths)
    for bad in ((0,) * (deepest + 1), (m,) * max(deepest, 1), "0" * deepest, 0):
        assert bad not in view
        with pytest.raises(KeyError):
            view[bad]
    with pytest.raises(TypeError):
        view[(0,) * deepest] = 0


@SETTINGS
@given(params=trinomial_params(), data=st.data())
def test_lift_terminal_anticipation_matches_path_loop(params, data):
    n_terminal = (params.n_periods + 1) * (params.n_periods + 2) // 2
    raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n_terminal, max_size=n_terminal))
    t = data.draw(st.floats(0.05, 0.95))
    nu = [x / sum(raw) for x in raw]
    got = lift_terminal_anticipation(params, nu, t)
    assert got.tobytes() == lift_terminal_anticipation_loop(params, nu, t).tobytes()
