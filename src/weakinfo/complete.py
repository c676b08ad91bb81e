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

Closed forms for lam and the achieved value exist for all three utility
families and are used as the default; the generic bracketing solver is kept
alongside as an independent route and the two must agree to solver
tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AdmissibilityError, ConvergenceError, DomainError
from .markets import BINOMIAL_OUTCOMES, BinomialLattice, BinomialParams, CompleteMarket, LevelView
from .measures import Anticipation
from .roots import decreasing_root
from .utility import LOG, POWER, Utility


# ---------------------------------------------------------------------------
# terminal quantities
# ---------------------------------------------------------------------------

def terminal_risk_neutral(params: BinomialParams) -> np.ndarray:
    """Risk-neutral terminal distribution over down-counts 0..N."""
    p = (float(params.r) + float(params.k)) / (float(params.h) + float(params.k))
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


def closed_form_lambda(params: BinomialParams, utility: Utility, nu) -> float:
    """The budget multiplier in closed form, per utility family."""
    rho_n = float(params.rho) ** params.n_periods
    v = float(params.v)
    if utility.kind == LOG:
        return 1.0 / v
    rn = terminal_risk_neutral(params)
    z = state_price_ratio(params, nu)
    if utility.kind == POWER:
        g = utility.gamma
        a = float(np.dot(rn, z ** (1.0 / (g - 1.0))))
        return float((v * rho_n ** (g / (g - 1.0)) / a) ** (g - 1.0))
    # exponential: lam = alpha rho^N exp(-v alpha rho^N - E_rn[ln Z])
    d = float(np.dot(rn, np.log(z)))
    return float(utility.alpha * rho_n * math.exp(-v * utility.alpha * rho_n - d))


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
    p = (float(params.r) + float(params.k)) / (float(params.h) + float(params.k))
    rho = float(params.rho)
    levels = [np.asarray(terminal_wealth, dtype=float)]
    for _ in range(params.n_periods):
        nxt = levels[0]
        cur = (p * nxt[:-1] + (1 - p) * nxt[1:]) / rho
        levels.insert(0, cur)
    return levels


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

    @property
    def proportion_defined(self) -> bool:
        return self.proportion is not None


def _triple(u: float, riskfree_u: float) -> ValueTriple:
    extra = u - riskfree_u
    prop = None if u == 0.0 else 1.0 - riskfree_u / u
    return ValueTriple(value=u, extra_value=extra, proportion=prop)


def value_of_information(params: BinomialParams, utility: Utility, nu) -> ValueTriple:
    """(u, F, pi) in closed form.

    log:    u = ln(v rho^N) + KL(nu || rn terminal); the gain is exactly the
            relative entropy, so it does not depend on wealth.
    power:  u = v^g rho^(N g) A^(1-g) / g with A = E_rn[Z^(1/(g-1))]; the
            proportion 1 - A^(g-1) does not depend on wealth.
    exp:    u = -exp(-v alpha rho^N - KL(rn terminal || nu)).

    pi is None (undefined) when u = 0.
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
        return lambda v: _triple(math.log(v * rho_n) + kl, math.log(v * rho_n))
    if np.any(nu_arr <= 0):
        raise DomainError("anticipation must be strictly positive for this family")
    z = rn / nu_arr
    if utility.kind == POWER:
        g = utility.gamma
        a = float(np.dot(rn, z ** (1.0 / (g - 1.0))))
        return lambda v: _triple(v**g * rho_n**g * a ** (1.0 - g) / g, v**g * rho_n**g / g)
    d, alpha = float(np.dot(rn, np.log(z))), utility.alpha
    return lambda v: _triple(-math.exp(-v * alpha * rho_n - d), -math.exp(-v * alpha * rho_n))


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
        p = (float(self.params.r) + float(self.params.k)) / (
            float(self.params.h) + float(self.params.k)
        )
        rho = float(self.params.rho)
        worst = 0.0
        for n in range(self.params.n_periods):
            cur, nxt = self.wealth[n], self.wealth[n + 1]
            implied = (p * nxt[:-1] + (1 - p) * nxt[1:]) / rho
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
    terminal = optimal_terminal_wealth(lam, params, utility, nu)
    if utility.requires_positive_wealth and np.any(terminal <= 0):
        raise DomainError("optimal terminal wealth left the utility domain")
    wealth = optimal_wealth_process(terminal, params)
    deltas = replicate_portfolio(wealth, params)
    nu_arr = _nu_array(params, nu)
    u = float(np.dot(nu_arr, utility.evaluate(terminal)))
    v = float(params.v)
    riskfree_u = float(utility.evaluate(v * float(params.rho) ** params.n_periods))
    residual = _budget_residual(float(wealth[0][0]), v)
    prop = None if u == 0.0 else 1.0 - riskfree_u / u
    return CompleteSolution(
        params=params,
        utility=utility,
        nu=tuple(nu.weights),
        lam=lam,
        terminal_wealth=terminal,
        wealth=wealth,
        deltas=deltas,
        value=u,
        extra_value=u - riskfree_u,
        proportion=prop,
        budget_residual=residual,
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
                triple = curve(v)
                rows.append(SweepRow(name, v, triple.value, triple.extra_value, triple.proportion))
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

    nu_leaves maps each leaf (state tuple) to its anticipated probability.
    Replication solves the full M x M system D delta = next-period wealth at
    every node; holdings are reported per replication asset.  Each depth is
    one array pass over its nodes in `nodes(n)` order, with one batched solve;
    the trees are views over those per-depth arrays, from the deepest level up.
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
    total = sum(nu_map.values())
    if abs(float(total) - 1.0) > 1e-9:
        raise ValueError("anticipation weights must sum to 1")
    if any(w <= 0 for w in nu_map.values()):
        raise DomainError("anticipation must be strictly positive")

    z = rn_arr / nu_arr
    n, rho, v = market.n_periods, market.rho, market.v
    disc = rho ** (-n)

    def budget(lam: float) -> float:
        return float(np.dot(rn_arr, disc * utility.inverse_marginal(lam * disc * z))) - v

    lam = decreasing_root(budget, 1e-14)

    terminal = np.asarray(utility.inverse_marginal(lam * disc * z), dtype=float)
    wealth, deltas = {n: terminal}, {}
    for depth in range(n - 1, -1, -1):
        cols = market.replication_assets(depth)
        children = wealth[depth + 1].reshape(-1, market.m_states)
        wealth[depth] = (children[:, None, :] @ qs[depth])[:, 0] / rho
        d_mat = market.factors[depth][None, :, cols] * market.level_prices(depth)[:, None, cols]
        deltas[depth] = np.linalg.solve(d_mat, children[..., None])[..., 0]
    _budget_residual(wealth[0].item(0), v)

    u = float(np.dot(nu_arr, utility.evaluate(terminal)))
    riskfree_u = float(utility.evaluate(v * rho**n))
    prop = None if u == 0.0 else 1.0 - riskfree_u / u
    return GeneralSolution(
        market=market,
        utility=utility,
        lam=lam,
        terminal_wealth=LevelView({n: terminal}, market.m_states),
        wealth=LevelView(wealth, market.m_states),
        deltas=LevelView(deltas, market.m_states),
        value=u,
        extra_value=u - riskfree_u,
        proportion=prop,
    )
