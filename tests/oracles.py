"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's solution path: expected utilities are
maximized directly over terminal claims (one-dimensional problems by grid
search plus interval refinement, higher-dimensional ones by a generic
constrained optimizer with analytic gradients), and strategies are simulated
forward from raw holdings.  The replay loops and the general-market
per-node loops at the end are the scalar references for the library's
per-period array passes, and the row-dict writer after them is the
reference for the CLI's one-pass table writer.
"""
from __future__ import annotations

import csv
import itertools
import json
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from weakinfo import AdmissibilityError, DomainError, NoArbitrageReport, RadonNikodym
from weakinfo.complete import terminal_risk_neutral
from weakinfo.roots import decreasing_root
from weakinfo.trinomial import (
    ReplicabilityReport,
    ReplicationError,
    extremal_measures,
    interior_measure,
    path_strings,
)


def _grid_refine_line(objective, lo, hi, sweeps=6, points=2001):
    """Maximize a unimodal function on [lo, hi] by repeated grid zooming."""
    for _ in range(sweeps):
        ts = np.linspace(lo, hi, points)
        vals = np.array([objective(t) for t in ts])
        best = int(np.argmax(vals))
        lo = ts[max(best - 1, 0)]
        hi = ts[min(best + 1, points - 1)]
    return 0.5 * (lo + hi)


def maximize_terminal_claim(constraints, target, nu, utility, positive, x0=None):
    """max sum(nu_i U(x_i)) s.t. constraints @ x == target, by direct search.

    constraints: (m, n) matrix, target: (m,) vector.  Returns (x, value).
    One remaining degree of freedom is handled by literal grid search with
    refinement; more by SLSQP on the raw variables with analytic gradients.
    """
    constraints = np.atleast_2d(np.asarray(constraints, dtype=float))
    target = np.atleast_1d(np.asarray(target, dtype=float))
    nu = np.asarray(nu, dtype=float)
    if x0 is None:
        x0, *_ = np.linalg.lstsq(constraints, target, rcond=None)
    _, _, vt = np.linalg.svd(constraints)
    null = vt[constraints.shape[0]:].T

    def value_at(x):
        return float(np.dot(nu, utility.evaluate(x)))

    if null.shape[1] == 1:
        direction = null[:, 0]
        # stay strictly inside the domain when wealth must be positive
        if positive:
            pos = direction > 1e-14
            neg = direction < -1e-14
            hi = np.min(-x0[neg] / direction[neg]) if neg.any() else 1e6
            lo = np.max(-x0[pos] / direction[pos]) if pos.any() else -1e6
            lo, hi = lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo)
        else:
            lo, hi = -1e4, 1e4

        def along(t):
            x = x0 + t * direction
            if positive and np.any(x <= 0):
                return -np.inf
            return value_at(x)

        t_best = _grid_refine_line(along, lo, hi)
        x = x0 + t_best * direction
        return x, value_at(x)

    bounds = [(1e-10, None)] * constraints.shape[1] if positive else None

    def neg_value(x):
        return -value_at(x)

    def neg_grad(x):
        return -nu * np.asarray(utility.marginal(x))

    # SLSQP stops once a step changes the value by less than ftol, which on a
    # flat optimum can leave small-probability entries a few percent short;
    # restarting from its own answer until x stops moving reaches the optimum
    x = np.asarray(x0, dtype=float)
    for _ in range(10):
        res = minimize(
            neg_value,
            x,
            jac=neg_grad,
            method="SLSQP",
            bounds=bounds,
            constraints=[{
                "type": "eq",
                "fun": lambda x: constraints @ x - target,
                "jac": lambda x: constraints,
            }],
            options={"maxiter": 2000, "ftol": 1e-14},
        )
        moved = np.max(np.abs(res.x - x))
        x = res.x
        if moved <= 1e-12 * max(1.0, np.max(np.abs(x))):
            break
    return x, value_at(x)


def binomial_value_oracle(params, utility, nu):
    """Optimal expected utility over terminal claims under the single budget."""
    rn = terminal_risk_neutral(params)
    rho_n = params.rho**params.n_periods
    x0 = np.full(params.n_periods + 1, params.v * rho_n)
    x, value = maximize_terminal_claim(
        rn.reshape(1, -1), np.array([params.v * rho_n]), nu, utility,
        positive=utility.requires_positive_wealth, x0=x0,
    )
    return x, value


# ---------------------------------------------------------------------------
# per-path reference loops for the array replays
# ---------------------------------------------------------------------------
# One scalar step per path and period, in plain Python arithmetic, exactly
# as the library computed these before its per-period array passes.

def simulate_strategy_loop(params, deltas, v0=None):
    """Binomial self-financing replay, one path at a time."""
    s, h, k, rho = (float(x) for x in (params.s, params.h, params.k, params.rho))
    out = {}
    for tup in itertools.product("ud", repeat=params.n_periods):
        wealth = float(params.v) if v0 is None else v0
        i = 0
        for n, step in enumerate(tup):
            price_now = s * (1 + h) ** (n - i) * (1 - k) ** i
            d = deltas[n][i]
            bond = (wealth - d * price_now) * rho
            if step == "d":
                i += 1
            price_next = s * (1 + h) ** (n + 1 - i) * (1 - k) ** i
            wealth = bond + d * price_next
        out["".join(tup)] = wealth
    return out


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def radon_nikodym_loop(p, q):
    """P(path)/Q(path) path by path, with the terminal-measurability check."""
    if p.n_periods != q.n_periods:
        raise ValueError("measures live on different lattices")
    ratios: dict = {}
    zero_paths = []
    expectation = 0
    for path in p.paths():
        pp = p.path_probability(path)
        qq = q.path_probability(path)
        if qq == 0:
            zero_paths.append(path)
            continue
        ratios[path] = pp / qq
        expectation = expectation + qq * (pp / qq)
    if zero_paths:
        raise DomainError(
            "denominator measure vanishes on paths: %s" % ", ".join(zero_paths)
        )
    by_terminal: dict[int, list] = {}
    for path, val in ratios.items():
        by_terminal.setdefault(path.count("d"), []).append(val)
    measurable = True
    terminal_vals = []
    for i in range(p.n_periods + 1):
        vals = by_terminal[i]
        ref = vals[0]
        for val in vals[1:]:
            if _is_exact(val) and _is_exact(ref):
                same = val == ref
            else:
                scale = max(abs(float(ref)), 1e-300)
                same = abs(float(val) - float(ref)) <= 1e-12 * scale
            if not same:
                measurable = False
        terminal_vals.append(ref)
    return RadonNikodym(
        per_path=ratios,
        terminal_measurable=measurable,
        terminal_values=tuple(terminal_vals) if measurable else None,
        expectation_under_denominator=float(expectation),
    )


def trinomial_wealth_and_delta_loop(params, terminal_wealth, *, t=0.5, rtol=1e-7):
    """Trinomial wealth tree, holdings and replicability check, node by node."""
    n = params.n_periods
    rho = params.rho
    pair = extremal_measures(params)
    q = np.array([float(x) for x in interior_measure(pair, t)])
    terminal = np.asarray(terminal_wealth, dtype=float)
    wealth: dict[str, float] = {}
    for path, value in zip(path_strings(n), terminal):
        wealth[path] = float(value)
    for depth in range(n - 1, -1, -1):
        for prefix in path_strings(depth):
            children = [wealth[prefix + o] for o in "umd"]
            wealth[prefix] = float(np.dot(q, children) / rho)
    mult = {"u": params.a, "m": params.b, "d": params.c}
    deltas: dict[str, float] = {}
    worst_gap, worst_node = 0.0, ""
    for depth in range(n):
        for prefix in path_strings(depth):
            s_node = params.s
            for step in prefix:
                s_node *= mult[step]
            vals = [wealth[prefix + o] for o in "umd"]
            quotients = [
                (vals[0] - vals[1]) / (s_node * (params.a - params.b)),
                (vals[1] - vals[2]) / (s_node * (params.b - params.c)),
                (vals[0] - vals[2]) / (s_node * (params.a - params.c)),
            ]
            spread = max(quotients) - min(quotients)
            scale = max(1.0, abs(quotients[2]), abs(wealth[prefix]) / s_node)
            gap = spread / scale
            if gap > worst_gap:
                worst_gap, worst_node = gap, prefix or "<root>"
            deltas[prefix] = quotients[2]
    report = ReplicabilityReport(
        ok=worst_gap <= rtol, worst_node=worst_node, worst_gap=worst_gap, tolerance=rtol
    )
    if not report.ok:
        raise ReplicationError(
            "pairwise difference quotients disagree at node %r (gap %.3e > %g); "
            "the claim is not replicable" % (worst_node, worst_gap, rtol)
        )
    return wealth, deltas, report


def lift_terminal_anticipation_loop(params, nu_terminal, t=0.5):
    """Terminal-node law spread over paths, one path string at a time."""
    from weakinfo.markets import TrinomialLattice

    lattice = TrinomialLattice(params)
    ref = dict(zip("umd", (float(x) for x in interior_measure(extremal_measures(params), t))))
    paths = path_strings(params.n_periods)
    ref_path = np.array([np.prod([ref[s] for s in p]) for p in paths])
    term_idx = np.array([lattice.terminal_index(*lattice.path_terminal(p)) for p in paths])
    ref_term = np.zeros(lattice.n_terminal)
    np.add.at(ref_term, term_idx, ref_path)
    return np.array([float(x) for x in nu_terminal])[term_idx] * ref_path / ref_term[term_idx]


def simulate_trinomial_strategy_loop(params, deltas, v0=None):
    """Trinomial self-financing replay, one path at a time."""
    mult = {"u": params.a, "m": params.b, "d": params.c}
    rho = params.rho
    out: dict[str, float] = {}
    for path in path_strings(params.n_periods):
        wealth = params.v if v0 is None else v0
        s = params.s
        for depth, step in enumerate(path):
            d = deltas[path[:depth]]
            bond = (wealth - d * s) * rho
            s = s * mult[step]
            wealth = bond + d * s
        out[path] = wealth
    return out


# ---------------------------------------------------------------------------
# per-node reference loops for the general-market passes
# ---------------------------------------------------------------------------
# One M x M solve D^T q = (1+r) s per node and one replication solve per
# node, exactly as the library computed the general market before its
# per-period passes.

def transition_probabilities_loop(market, node):
    """Martingale weights at one node from that node's own price matrix."""
    n = len(node)
    cols = market.replication_assets(n)
    prices = market.prices_at(node)
    d_mat = market.factors[n][:, cols] * prices[cols]
    q = np.linalg.solve(d_mat.T, market.rho * prices[cols])
    if not np.all(q > 0):
        raise AdmissibilityError("no strictly positive martingale measure at node %r" % (node,))
    if abs(float(q.sum()) - 1.0) > 1e-9:
        raise AdmissibilityError("martingale weights at node %r do not sum to one" % (node,))
    implied = q @ (market.factors[n] * prices)
    if not np.allclose(implied, market.rho * prices, rtol=1e-9, atol=1e-12):
        raise AdmissibilityError("redundant assets priced inconsistently at node %r" % (node,))
    return q


def validate_no_arbitrage_loop(market):
    """The first node, depth by depth, whose one-period measure fails."""
    for n in range(market.n_periods):
        for node in market.nodes(n):
            try:
                transition_probabilities_loop(market, node)
            except AdmissibilityError as exc:
                return NoArbitrageReport(False, (str(exc),))
    return NoArbitrageReport(True, ())


def leaf_measure_loop(market):
    """Risk-neutral leaf probabilities as products of per-node transitions."""
    probs = {(): 1.0}
    for _ in range(market.n_periods):
        nxt = {}
        for node, mass in probs.items():
            q = transition_probabilities_loop(market, node)
            for j in range(market.m_states):
                nxt[node + (j,)] = mass * float(q[j])
        probs = nxt
    return probs


def solve_complete_market_loop(market, utility, nu_leaves):
    """(lam, wealth, deltas) with one backward step and one solve per node."""
    leaves = list(market.leaves())
    rn = leaf_measure_loop(market)
    rn_arr = np.array([rn[leaf] for leaf in leaves])
    nu_arr = np.array([float(nu_leaves[leaf]) for leaf in leaves])
    z = rn_arr / nu_arr
    n, rho, v = market.n_periods, market.rho, market.v
    disc = rho ** (-n)

    def budget(lam):
        return float(np.dot(rn_arr, disc * utility.inverse_marginal(lam * disc * z))) - v

    lam = decreasing_root(budget, 1e-14)
    terminal = utility.inverse_marginal(lam * disc * z)
    wealth = {leaf: float(val) for leaf, val in zip(leaves, terminal)}
    deltas = {}
    for depth in range(n - 1, -1, -1):
        for node in market.nodes(depth):
            q = transition_probabilities_loop(market, node)
            children = np.array([wealth[node + (j,)] for j in range(market.m_states)])
            wealth[node] = float(np.dot(q, children) / rho)
            deltas[node] = np.linalg.solve(market.price_matrix(node), children)
    return lam, wealth, deltas


# ---------------------------------------------------------------------------
# CLI output: the row-dict JSON/CSV writer
# ---------------------------------------------------------------------------

def format_number_reference(x, digits: int):
    if x is None or isinstance(x, bool):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
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
    if isinstance(obj, (Fraction, int, float, np.integer, np.floating)):
        return format_number_reference(obj, digits)
    return obj


def write_table_loop(out_dir, name: str, columns: dict, digits: int):
    """name.json and name.csv from row dicts, formatting each cell per file."""
    rows = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
    (out_dir / ("%s.json" % name)).write_text(
        json.dumps(_format_tree(rows, digits), indent=2, sort_keys=True) + "\n"
    )
    with (out_dir / ("%s.csv" % name)).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        for row in rows:
            formatted = []
            for col in columns:
                val = _format_tree(row.get(col), digits)
                formatted.append("" if val is None else val)
            writer.writerow(formatted)
