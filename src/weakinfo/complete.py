"""Complete-market solver for the value of terminal-distribution information.

The optimization max E^nu[U(V_N)] over self-financing strategies from
initial wealth v reduces, by the martingale method, to one scalar dual
equation: find lam > 0 with

    E_rn[ rho^-N I(lam rho^-N Z) ] = v,      Z = d(risk-neutral)/d(minimal)

where I is the inverse marginal utility and Z is terminal-measurable with
Z(x) = rn(S_N = x) / nu(x).  Optimal terminal wealth is I(lam rho^-N Z),
the wealth process is its discounted risk-neutral conditional expectation,
and the replicating holdings come from one-period linear systems (a 2x2
difference quotient on the binomial lattice, a full M x M solve in the
general market).

Its closed form per utility family depends only on the (rn, nu) arrays, so
both complete markets share one (`_closed_form`); exponential wealth is
formed without lam, which can underflow.  The bracketing solver is kept on
the binomial lattice as an independent route; the two agree to tolerance.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import AdmissibilityError, ConvergenceError, DomainError
from .markets import BINOMIAL_OUTCOMES, BinomialLattice, BinomialParams, CompleteMarket, LevelView
from .measures import Anticipation
from .roots import decreasing_root
from .utility import EXPONENTIAL, LOG, POWER, Utility


# ---------------------------------------------------------------------------
# terminal quantities
# ---------------------------------------------------------------------------

def _up_probability(params: BinomialParams) -> float:
    """The risk-neutral up probability p = (r + k) / (h + k), as a float."""
    return (float(params.r) + float(params.k)) / (float(params.h) + float(params.k))


def terminal_risk_neutral(params: BinomialParams) -> np.ndarray:
    """Risk-neutral terminal distribution over down-counts 0..N."""
    p = _up_probability(params)
    n = params.n_periods
    return np.array(
        [math.comb(n, i) * p ** (n - i) * (1 - p) ** i for i in range(n + 1)],
        dtype=float,
    )


def _nu_array(params: BinomialParams, nu) -> np.ndarray:
    nu = Anticipation.of(nu)
    if len(nu) != params.n_periods + 1:
        raise ValueError(
            "anticipation has %d entries, lattice has %d terminal nodes"
            % (len(nu), params.n_periods + 1)
        )
    return np.array([float(x) for x in nu.weights])


def state_price_ratio(params: BinomialParams, nu) -> np.ndarray:
    """Z(x) = risk-neutral terminal mass / anticipated mass, per terminal node."""
    rn = terminal_risk_neutral(params)
    nu_arr = _nu_array(params, nu)
    if np.any(nu_arr <= 0):
        raise DomainError("anticipation must be strictly positive for the solver")
    return rn / nu_arr


# ---------------------------------------------------------------------------
# the scalar dual equation
# ---------------------------------------------------------------------------

def budget_map(lam: float, params: BinomialParams, utility: Utility, nu) -> float:
    """E_rn[rho^-N I(lam rho^-N Z)], strictly decreasing in lam."""
    rn = terminal_risk_neutral(params)
    z = state_price_ratio(params, nu)
    disc = float(params.rho) ** (-params.n_periods)
    return float(np.dot(rn, disc * utility.inverse_marginal(lam * disc * z)))


def _family_statistic(utility: Utility, w, z) -> float | None:
    """None for log, A = E_w[z^(1/(g-1))] for power, d = E_w[ln z] for exponential."""
    if utility.kind == LOG:
        return None
    f = np.log(z) if utility.kind == EXPONENTIAL else z ** (1.0 / (utility.gamma - 1.0))
    return float(np.dot(w, f))


def _closed_form(utility: Utility, w, z, rho: float, n: int, v: float):
    """(lam, terminal wealth, `_family_statistic`) with E_w[rho^-N I(lam rho^-N z)] = v.

    w is a probability vector and z > 0 a ratio on its states.  log: lam =
    1/v; power: lam = (v rho^(N g/(g-1)) / A)^(g-1); exponential: lam =
    alpha rho^N exp(-v alpha rho^N - d), which may underflow to 0, so the
    wealth it buys is formed without it, as v rho^N + (d - ln z) / alpha.
    """
    rho_n = rho**n
    stat = _family_statistic(utility, w, z)
    if utility.kind == EXPONENTIAL:
        alpha = utility.alpha
        lam = float(alpha * rho_n * math.exp(-v * alpha * rho_n - stat))
        return lam, v * rho_n + (stat - np.log(z)) / alpha, stat
    if utility.kind == LOG:
        lam = 1.0 / v
    else:
        g = utility.gamma
        try:
            lam = float((v * rho_n ** (g / (g - 1.0)) / stat) ** (g - 1.0))
        except OverflowError:
            raise DomainError("the budget multiplier overflows a double at v=%r" % v) from None
    return lam, np.asarray(utility.inverse_marginal(lam * rho ** (-n) * z), dtype=float), stat


def _binomial_closed_form(params: BinomialParams, utility: Utility, nu):
    rn, z = terminal_risk_neutral(params), state_price_ratio(params, nu)
    return _closed_form(utility, rn, z, float(params.rho), params.n_periods, float(params.v))


def closed_form_lambda(params: BinomialParams, utility: Utility, nu) -> float:
    """The budget multiplier in closed form, per utility family."""
    return _binomial_closed_form(params, utility, nu)[0]


def solve_lambda(
    params: BinomialParams,
    utility: Utility,
    nu,
    *,
    method: str = "closed",
    tol: float = 1e-12,
) -> float:
    """Solve the budget equation for the multiplier.

    method="closed" uses the per-family closed form; method="bracket" runs
    the generic route: exponential scan from lam = 1 by factors of 10 until
    the (strictly decreasing) budget map straddles v, bisection until the
    bracket's relative width is below `tol`, then one Newton polish.  A
    bracket that fails raises `ConvergenceError` with its history.
    """
    violations = params.arbitrage_violations()
    if violations:
        raise AdmissibilityError("; ".join(violations))
    if method == "closed":
        return closed_form_lambda(params, utility, nu)
    if method != "bracket":
        raise ValueError("unknown method %r" % method)

    v = float(params.v)
    f = lambda lam: budget_map(lam, params, utility, nu) - v
    lam = decreasing_root(f, tol)
    # one Newton polish on the smooth strictly monotone budget map
    rn = terminal_risk_neutral(params)
    z = state_price_ratio(params, nu)
    disc = float(params.rho) ** (-params.n_periods)
    deriv = float(np.dot(rn, disc**2 * z * utility.inverse_marginal_prime(lam * disc * z)))
    if deriv != 0.0:
        lam -= f(lam) / deriv
    return lam


# ---------------------------------------------------------------------------
# wealth, replication, value
# ---------------------------------------------------------------------------

def optimal_terminal_wealth(
    lam: float, params: BinomialParams, utility: Utility, nu
) -> np.ndarray:
    """I(lam rho^-N Z) per terminal node; terminal-measurable by construction."""
    z = state_price_ratio(params, nu)
    disc = float(params.rho) ** (-params.n_periods)
    return np.asarray(utility.inverse_marginal(lam * disc * z), dtype=float)


def optimal_wealth_process(terminal_wealth, params: BinomialParams) -> list[np.ndarray]:
    """Backward discounted risk-neutral expectations; wealth[n][i] at node (n, i)."""
    p, rho = _up_probability(params), float(params.rho)
    levels = [np.asarray(terminal_wealth, dtype=float)]
    for _ in range(params.n_periods):
        levels.insert(0, _backward_step(levels[0], p, rho))
    return levels


def _backward_step(nxt: np.ndarray, p: float, rho: float) -> np.ndarray:
    """Discounted expectation of a level's successors under up probability p."""
    return (p * nxt[:-1] + (1 - p) * nxt[1:]) / rho


def replicate_portfolio(wealth: list[np.ndarray], params: BinomialParams) -> list[np.ndarray]:
    """Risky-asset units per node: difference quotient over the two successors.

    The residual wealth sits in the risk-free asset, which makes the
    strategy self-financing; `simulate_strategy` replays it forward.
    """
    lattice = BinomialLattice(params)
    deltas = []
    for n in range(params.n_periods):
        nxt = wealth[n + 1]
        prices_next = np.array(lattice.level_prices(n + 1), dtype=float)
        deltas.append((nxt[:-1] - nxt[1:]) / (prices_next[:-1] - prices_next[1:]))
    return deltas


def simulate_strategy(params: BinomialParams, deltas, v0: float | None = None):
    """Forward wealth of a self-financing strategy along every path.

    deltas[n][i] are risky units held at node (n, i); the remainder earns r.
    Returns a read-only {path: terminal wealth} `LevelView` with paths in
    u<d lexicographic order and Python float values.

    Each period is one array pass over every path at that depth.  A path's
    index is its base-2 number (u=0, d=1, first step most significant), so
    the wealth and down-count arrays double once per period.
    """
    lattice = BinomialLattice(params)
    rho = float(params.rho)
    wealth = np.array([float(params.v) if v0 is None else v0], dtype=float)
    downs = np.zeros(1, dtype=np.int64)
    prices = np.array(lattice.level_prices(0), dtype=float)
    for n in range(params.n_periods):
        nxt = np.array(lattice.level_prices(n + 1), dtype=float)
        d = np.asarray(deltas[n], dtype=float)[downs]
        bond = (wealth - d * prices[downs]) * rho
        wealth = np.column_stack((bond + d * nxt[downs], bond + d * nxt[downs + 1])).ravel()
        downs = np.column_stack((downs, downs + 1)).ravel()
        prices = nxt
    return LevelView({params.n_periods: wealth}, BINOMIAL_OUTCOMES)


@dataclass(frozen=True)
class ValueTriple:
    """Achieved expected utility, its gain over all-risk-free, and the ratio."""

    value: float
    extra_value: float
    proportion: float | None


def _triple(utility: Utility, u: float, riskfree_u: float, stat: float | None) -> ValueTriple:
    """The triple of achieved utility u, with stat = `_family_statistic` of (rn, Z).

    For exponential utility stat is d = KL(rn || nu), and the proportion is
    1 - exp(d), finite where u and riskfree_u underflow together.
    """
    if utility.kind == EXPONENTIAL:
        prop = -math.expm1(stat)
    else:
        prop = None if u == 0.0 else 1.0 - riskfree_u / u
    return ValueTriple(value=u, extra_value=u - riskfree_u, proportion=prop)


def value_of_information(params: BinomialParams, utility: Utility, nu) -> ValueTriple:
    """(u, F, pi) in closed form.

    log:    u = ln(v rho^N) + KL(nu || rn terminal); the gain is exactly the
            relative entropy, so it does not depend on wealth.
    power:  u = v^g rho^(N g) A^(1-g) / g with A = E_rn[Z^(1/(g-1))]; the
            proportion 1 - A^(g-1) does not depend on wealth.
    exp:    u = -exp(-v alpha rho^N - KL(rn terminal || nu)); the
            proportion 1 - exp(KL) does not depend on wealth.

    pi is None (undefined) when u = 0.  A value that overflows a double
    raises `DomainError`.
    """
    return _value_curve(params, utility, nu)(float(params.v))


def _value_curve(params: BinomialParams, utility: Utility, nu):
    """`value_of_information` as a function of v, its wealth-free part done once."""
    rho_n = float(params.rho) ** params.n_periods
    rn = terminal_risk_neutral(params)
    nu_arr = _nu_array(params, nu)
    if utility.kind == LOG:
        mask = nu_arr > 0
        kl = float(np.dot(nu_arr[mask], np.log(nu_arr[mask] / rn[mask])))
        stat, utilities = None, lambda v: (math.log(v * rho_n) + kl, math.log(v * rho_n))
    elif np.any(nu_arr <= 0):
        raise DomainError("anticipation must be strictly positive for this family")
    else:
        stat, g, alpha = _family_statistic(utility, rn, rn / nu_arr), utility.gamma, utility.alpha
        if utility.kind == POWER:
            utilities = lambda v: (v**g * rho_n**g * stat ** (1.0 - g) / g, v**g * rho_n**g / g)
        else:
            utilities = lambda v: (-math.exp(-v * alpha * rho_n - stat),
                                   -math.exp(-v * alpha * rho_n))

    def curve(v: float) -> ValueTriple:
        try:
            return _triple(utility, *utilities(v), stat)
        except OverflowError:
            raise DomainError("the value overflows a double at v=%r" % v) from None

    return curve


@dataclass
class CompleteSolution:
    """Everything the binomial pipeline produces for one instance."""

    params: BinomialParams
    utility: Utility
    nu: tuple
    lam: float
    terminal_wealth: np.ndarray
    wealth: list
    deltas: list
    value: float
    extra_value: float
    proportion: float | None
    budget_residual: float

    def martingale_gap(self) -> float:
        """Worst relative error in the node-wise martingale identity."""
        p, rho = _up_probability(self.params), float(self.params.rho)
        worst = 0.0
        for n in range(self.params.n_periods):
            cur = self.wealth[n]
            implied = _backward_step(self.wealth[n + 1], p, rho)
            scale = np.maximum(np.abs(cur), 1.0)
            worst = max(worst, float(np.max(np.abs(implied - cur) / scale)))
        return worst


def _budget_residual(root: float, v: float) -> float:
    """|root wealth - v| / v; raises `ConvergenceError` above 1e-6."""
    residual = abs(root - v) / v
    if residual > 1e-6:
        raise ConvergenceError("budget equation violated: root wealth %.12g vs v=%.12g" % (root, v))
    return residual


def solve(
    params: BinomialParams,
    utility: Utility,
    nu,
    *,
    method: str = "closed",
) -> CompleteSolution:
    """Run the full pipeline: multiplier, wealth tree, holdings, value."""
    nu = Anticipation.of(nu)
    lam = solve_lambda(params, utility, nu, method=method)
    # closed-form wealth needs no lam, which underflows for exponential utility
    _, terminal, stat = _binomial_closed_form(params, utility, nu)
    if method == "bracket":
        terminal = optimal_terminal_wealth(lam, params, utility, nu)
    if utility.requires_positive_wealth and np.any(terminal <= 0):
        raise DomainError("optimal terminal wealth left the utility domain")
    wealth = optimal_wealth_process(terminal, params)
    deltas = replicate_portfolio(wealth, params)
    v = float(params.v)
    residual = _budget_residual(float(wealth[0][0]), v)
    u = float(np.dot(_nu_array(params, nu), utility.evaluate(terminal)))
    riskfree_u = float(utility.evaluate(v * float(params.rho) ** params.n_periods))
    return CompleteSolution(
        params=params,
        utility=utility,
        nu=tuple(nu.weights),
        lam=lam,
        terminal_wealth=terminal,
        wealth=wealth,
        deltas=deltas,
        budget_residual=residual,
        **asdict(_triple(utility, u, riskfree_u, stat)),
    )


def single_period_closed_form(utility: Utility, params: BinomialParams, nu) -> float:
    """Optimal risky units in the one-period market, straight from the FOC.

    With w_up = v rho + delta s (h - r) and w_dn = v rho - delta s (k + r),
    the first-order condition fixes the ratio R = w_up / w_dn per family and

        delta = v rho (R - 1) / (s ((h - r) + R (k + r))).
    """
    if params.n_periods != 1:
        raise ValueError("closed form applies to one-period markets only")
    nu = Anticipation.of(nu)
    if len(nu) != 2:
        raise ValueError("one-period anticipation needs exactly two entries")
    nu0, nu1 = (float(x) for x in nu.weights)
    s, h, k, r, v, rho = (
        float(x) for x in (params.s, params.h, params.k, params.r, params.v, params.rho)
    )
    up_edge, dn_edge = nu0 * (h - r), nu1 * (k + r)
    if utility.kind == LOG:
        return v * rho * (up_edge - dn_edge) / (s * (h - r) * (k + r))
    if up_edge <= 0 or dn_edge <= 0:
        raise DomainError(
            "closed form needs nu0 (h - r) > 0 and nu1 (k + r) > 0, got %g and %g"
            % (up_edge, dn_edge)
        )
    if utility.kind == POWER:
        ratio = (dn_edge / up_edge) ** (1.0 / (utility.gamma - 1.0))
        return v * rho * (ratio - 1.0) / (s * ((h - r) + ratio * (k + r)))
    return math.log(up_edge / dn_edge) / (utility.alpha * s * (h + k))


# ---------------------------------------------------------------------------
# anticipation presets and the wealth sweep
# ---------------------------------------------------------------------------

def anticipation_presets(params: BinomialParams) -> dict[str, tuple]:
    """Named terminal distributions: precise, uniform, conservative, risk-neutral.

    precise puts 95% on one interior node, conservative puts 10% on each
    extreme node and spreads the rest evenly, risk-neutral copies the
    martingale terminal distribution (zero information by construction).
    """
    n = params.n_periods
    presets: dict[str, tuple] = {}
    spike = (n + 1) // 2
    precise = [0.05 / n] * (n + 1)
    precise[spike] = 0.95
    presets["precise"] = tuple(precise)
    presets["uniform"] = tuple([1.0 / (n + 1)] * (n + 1))
    if n >= 2:
        interior = 0.8 / (n - 1)
        presets["conservative"] = tuple([0.1] + [interior] * (n - 1) + [0.1])
    presets["risk-neutral"] = tuple(terminal_risk_neutral(params).tolist())
    return presets


@dataclass(frozen=True)
class SweepRow:
    anticipation: str
    v: float
    value: float | None
    extra_value: float | None
    proportion: float | None
    error: str | None = None


def sweep(
    params: BinomialParams,
    utility: Utility,
    anticipations: dict[str, tuple],
    v_grid,
    *,
    threads: int = 1,
) -> list[SweepRow]:
    """Value/extra-value/proportion curves over an initial-wealth grid.

    Rows come in (anticipation, v) order and equal `value_of_information`
    at each v; its wealth-free part runs once per anticipation.  A row the
    library rejects (`AdmissibilityError`, `DomainError`,
    `ConvergenceError`) is tagged, not fatal: v is checked first, then the
    anticipation.  Any other exception propagates.  `threads` is accepted
    for compatibility and changes nothing.
    """
    rows = []
    for name, nu in anticipations.items():
        try:
            curve = _value_curve(params, utility, nu)
        except (AdmissibilityError, DomainError, ConvergenceError) as exc:
            curve = exc
        for v in map(float, v_grid):
            try:
                replace(params, v=v)  # rejects v as BinomialParams does
                if isinstance(curve, Exception):
                    raise curve
                rows.append(SweepRow(name, v, **asdict(curve(v))))
            except (AdmissibilityError, DomainError, ConvergenceError) as exc:
                rows.append(SweepRow(name, v, None, None, None, error=str(exc)))
    return rows


# ---------------------------------------------------------------------------
# general M-state complete markets
# ---------------------------------------------------------------------------

@dataclass
class GeneralSolution:
    """Solver output on a general complete market (leaves are the states).

    The trees are read-only `LevelView`s keyed by state tuples; deltas map
    a node to its row of holdings per replication asset.
    """

    market: CompleteMarket
    utility: Utility
    lam: float
    terminal_wealth: LevelView
    wealth: LevelView
    deltas: LevelView
    value: float
    extra_value: float
    proportion: float | None


def _period_measures(market: CompleteMarket) -> tuple[list[np.ndarray], np.ndarray]:
    """Checked weights of every period, and their products in `leaves()` order."""
    qs, probs = [], np.ones(1)
    for n in range(market.n_periods):
        qs.append(market.period_measure(n, market.level_prices(n)))
        probs = (probs[:, None] * qs[-1]).reshape(-1)
    return qs, probs


def leaf_measure(market: CompleteMarket) -> dict[tuple, float]:
    """Risk-neutral probability of every leaf (product of period transitions)."""
    return dict(zip(market.leaves(), _period_measures(market)[1].tolist()))


def solve_complete_market(
    market: CompleteMarket, utility: Utility, nu_leaves
) -> GeneralSolution:
    """Martingale-method pipeline on a general M-state market.

    nu_leaves maps each leaf (state tuple) to its anticipated probability;
    lam and terminal wealth take the binomial lattice's closed form, with nu
    divided by its sum.  Replication solves the full M x M system D delta =
    next-period wealth at every node; holdings are reported per replication
    asset.  Each depth is one array pass over its nodes in `nodes(n)` order,
    with one batched solve; the trees are views over those per-depth arrays,
    from the deepest level up.
    """
    qs, rn_arr = _period_measures(market)
    nu_map = dict(nu_leaves)
    # every leaf has a weight and there are no more weights than leaves
    try:
        nu_arr = np.array([float(nu_map[leaf]) for leaf in market.leaves()])
    except KeyError:
        nu_arr = None
    if nu_arr is None or len(nu_arr) != len(nu_map):
        raise ValueError("anticipation must cover exactly the terminal states")
    total = float(nu_arr.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError("anticipation weights must sum to 1")
    if np.any(nu_arr <= 0):
        raise DomainError("anticipation must be strictly positive")
    nu_arr /= total  # the closed form takes nu as a probability
    n, rho, v = market.n_periods, market.rho, market.v
    lam, terminal, stat = _closed_form(utility, rn_arr, rn_arr / nu_arr, rho, n, v)
    wealth, deltas = {n: terminal}, {}
    for depth in range(n - 1, -1, -1):
        cols = market.replication_assets(depth)
        children = wealth[depth + 1].reshape(-1, market.m_states)
        wealth[depth] = (children[:, None, :] @ qs[depth])[:, 0] / rho
        d_mat = market.factors[depth][None, :, cols] * market.level_prices(depth)[:, None, cols]
        deltas[depth] = np.linalg.solve(d_mat, children[..., None])[..., 0]
    _budget_residual(wealth[0].item(0), v)

    u = float(np.dot(nu_arr, utility.evaluate(terminal)))
    return GeneralSolution(
        market=market,
        utility=utility,
        lam=lam,
        terminal_wealth=LevelView({n: terminal}, market.m_states),
        wealth=LevelView(wealth, market.m_states),
        deltas=LevelView(deltas, market.m_states),
        **asdict(_triple(utility, u, float(utility.evaluate(v * rho**n)), stat)),
    )
