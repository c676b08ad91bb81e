"""Incomplete-market (trinomial) optimizer.

With three one-period outcomes and two assets the martingale measure is no
longer unique: the admissible one-period measures form the open segment
between two extremal triples, each with one zero entry.  Products of
extremal choices over the periods give 2^N path measures.  Their convex
hull holds the martingale measures that mix the same way at every node of
a period, so "price v under every such measure" is equivalent to the 2^N
linear budget equations under the product measures.  For N >= 2 a
martingale measure may mix per node, and the hull misses those: the 2^N
budgets are a relaxation of pricing under every martingale measure.

The optimal terminal claim solves a 2^N-dimensional dual system: find
multipliers lam_j with

    v = E^nu[ rho^-N (dP^i/dnu) I( sum_j lam_j rho^-N dP^j/dnu ) ]   for all i,

where nu is the anticipated *path* distribution.  The system is the
first-order condition of a strictly convex dual, solved here by damped
Newton with an analytic Jacobian; all sums over the 3^N paths factor
through per-period tensor contractions, so nothing of size 2^N * 3^N is
ever materialized.

Newton starts from a scalar multiple of a shape.  The scale solves the
budget under the shape's own mixture measure alone, a complete market, in
closed form (`complete._closed_form`).  When nu is the product of its
per-period marginals (to rtol 1e-9), the shape is the Kronecker product of
the N one-period optima and the start is the solution: y is then a product
over periods, so each budget factors into one-period budgets for log and
power utility (I is multiplicative), and splits into a sum of them for
exponential utility, whose one-period shape does not depend on v.  Any
other nu starts from the uniform shape.

The solved claim satisfies every product budget.  It is attainable only if
it replicates: its wealth process / holdings follow from any fixed interior
measure (t = 1/2 per period by default), and all three pairwise difference
quotients must then agree.  The check is enforced, not assumed; a claim
solved for an anticipation that is not a product generally fails it.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AdmissibilityError, ConvergenceError, DomainError
from .complete import _closed_form
from .markets import (
    TRINOMIAL_MAX_PERIODS,
    TRINOMIAL_OUTCOMES,
    LevelView,
    TrinomialParams,
    _exact_dtype,
)
from .utility import Utility

_OUTCOME_INDEX = {"u": 0, "m": 1, "d": 2}


class ReplicationError(ConvergenceError):
    """The solved claim failed the pairwise difference-quotient check."""


# ---------------------------------------------------------------------------
# extremal and product measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalPair:
    """The two boundary martingale triples (zero on one branch each).

    p0 zeroes the bottom branch when b < 1+r and the top branch otherwise;
    p1 always zeroes the middle branch.  Entries keep the arithmetic type
    of the inputs, so Fraction parameters give exact triples.
    """

    p0: tuple
    p1: tuple
    middle_below_rho: bool

    def as_matrix(self) -> np.ndarray:
        return np.array([[float(x) for x in self.p0], [float(x) for x in self.p1]])


def extremal_measures(params: TrinomialParams) -> ExtremalPair:
    violations = params.arbitrage_violations()
    if violations:
        raise AdmissibilityError("; ".join(violations))
    a, b, c, rho = params.a, params.b, params.c, params.rho
    if b < rho:
        p0 = ((rho - b) / (a - b), (a - rho) / (a - b), 0 * rho)
    else:
        p0 = (0 * rho, (rho - c) / (b - c), (b - rho) / (b - c))
    p1 = ((rho - c) / (a - c), 0 * rho, (a - rho) / (a - c))
    return ExtremalPair(p0=p0, p1=p1, middle_below_rho=b < rho)


def interior_measure(pair: ExtremalPair, t) -> tuple:
    """Convex combination t p0 + (1-t) p1; interior for t in (0, 1)."""
    if not 0 < t < 1:
        raise ValueError("mixing weight must lie strictly between 0 and 1")
    return tuple(t * x + (1 - t) * y for x, y in zip(pair.p0, pair.p1))


def path_index(path: str) -> int:
    idx = 0
    for step in path:
        idx = idx * 3 + _OUTCOME_INDEX[step]
    return idx


def path_strings(n: int) -> list[str]:
    return ["".join(t) for t in itertools.product(TRINOMIAL_OUTCOMES, repeat=n)]


def choice_strings(n: int) -> list[str]:
    return ["".join(t) for t in itertools.product("01", repeat=n)]


class ProductMeasureSet:
    """The 2^N products of one extremal measure per period.

    Indexed by binary choice strings, character n selecting p0 or p1 for
    period n.  Exact path probabilities are available per (choice, path);
    the dense (2^N, 3^N) matrix is only formed on explicit request.
    """

    def __init__(self, pair: ExtremalPair, n_periods: int):
        if n_periods > TRINOMIAL_MAX_PERIODS:
            raise AdmissibilityError(
                "product-measure count capped at 2^%d" % TRINOMIAL_MAX_PERIODS
            )
        self.pair = pair
        self.n_periods = n_periods

    @property
    def n_measures(self) -> int:
        return 2**self.n_periods

    @property
    def n_paths(self) -> int:
        return 3**self.n_periods

    def choices(self) -> list[str]:
        return choice_strings(self.n_periods)

    def path_probability(self, choice: str, path: str):
        prob = 1
        for ch, step in zip(choice, path):
            triple = self.pair.p0 if ch == "0" else self.pair.p1
            prob = prob * triple[_OUTCOME_INDEX[step]]
        return prob

    def matrix(self) -> np.ndarray:
        """Dense (2^N, 3^N) matrix of all products; small N only."""
        if 6**self.n_periods > 2_000_000:
            raise MemoryError("dense product matrix too large; use the contractions")
        w = self.pair.as_matrix()
        out = np.array([[1.0]])
        for _ in range(self.n_periods):
            out = np.kron(out, w)
        return out


def product_measures(pair: ExtremalPair, n_periods: int) -> ProductMeasureSet:
    return ProductMeasureSet(pair, n_periods)


# ---------------------------------------------------------------------------
# anticipations over paths
# ---------------------------------------------------------------------------

def coerce_path_anticipation(params: TrinomialParams, nu) -> np.ndarray:
    """Accept a path-level vector (base-3 path order) or a {path: mass} dict."""
    n_paths = 3**params.n_periods
    if isinstance(nu, dict):
        arr = np.zeros(n_paths)
        for path, mass in nu.items():
            arr[path_index(path)] = float(mass)
    else:
        arr = np.array(nu, dtype=float)  # a copy: solutions never alias the input
    if arr.shape != (n_paths,):
        raise ValueError("path anticipation must have 3^N entries")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError("path anticipation must sum to 1")
    if np.any(arr <= 0):
        raise DomainError("path anticipation must be strictly positive")
    return arr


def product_path_anticipation(params: TrinomialParams, per_period) -> np.ndarray:
    """Path distribution with independent per-period branch probabilities.

    Claims optimal against a product anticipation factor period by period
    and are therefore attainable; they make good hedging fixtures.
    """
    triples = [np.asarray([float(x) for x in tri]) for tri in per_period]
    if len(triples) != params.n_periods:
        raise ValueError("need one branch triple per period")
    for tri in triples:
        if tri.shape != (3,) or abs(tri.sum() - 1.0) > 1e-12 or np.any(tri <= 0):
            raise ValueError("each period needs a strictly positive triple summing to 1")
    out = np.array([1.0])
    for tri in triples:
        out = np.kron(out, tri)
    return out


def lift_terminal_anticipation(
    params: TrinomialParams, nu_terminal, t: float = 0.5
) -> np.ndarray:
    """Spread a terminal-node distribution over paths.

    The terminal law is split among the paths reaching each endpoint in
    proportion to a reference interior martingale measure's conditional
    path weights (mixing weight `t` per period, 1/2 by default).
    """
    from .markets import TrinomialLattice

    lattice = TrinomialLattice(params)
    pair = extremal_measures(params)
    ref = np.array([float(x) for x in interior_measure(pair, t)])
    nu_terminal = [float(x) for x in nu_terminal]
    if len(nu_terminal) != lattice.n_terminal:
        raise ValueError(
            "terminal anticipation needs %d entries" % lattice.n_terminal
        )
    # per-period passes in base-3 path order; a path with i ups and j middle
    # moves ends at terminal_index(i, j) = i (N+1) - i (i-1) / 2 + j
    n = params.n_periods
    ref_path = np.ones(1)
    ups = mids = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        ref_path = np.outer(ref_path, ref).ravel()
        ups = np.add.outer(ups, [1, 0, 0]).ravel()
        mids = np.add.outer(mids, [0, 1, 0]).ravel()
    term_idx = ups * (n + 1) - ups * (ups - 1) // 2 + mids
    ref_term = np.zeros(lattice.n_terminal)
    np.add.at(ref_term, term_idx, ref_path)
    out = np.array(nu_terminal)[term_idx] * ref_path / ref_term[term_idx]
    return out


# ---------------------------------------------------------------------------
# tensor contractions over the period structure
# ---------------------------------------------------------------------------

def _mode_contract(flat: np.ndarray, mat: np.ndarray, n_axes: int) -> np.ndarray:
    """Apply `mat` along every axis of a flat tensor with n_axes equal axes.

    Each pass contracts the leading axis and appends the result as the
    trailing one (the shuffle form of a Kronecker mat-vec), so after n_axes
    passes the axes are back in order without a transposing copy.
    """
    t = flat
    for _ in range(n_axes):
        t = (t.reshape(mat.shape[1], -1).T @ mat.T).reshape(-1)
    return t


def _mixture_over_paths(lam: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """sum_j lam_j P^j(path) for every path, via per-period contractions."""
    return _mode_contract(lam, w.T, n)


def _aggregate_over_measures(f: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """E^{P^j}[f] for every product measure j."""
    return _mode_contract(f, w, n)


def _gram_matrix(g: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """sum_b P^i(b) P^l(b) g(b) as a (2^N, 2^N) matrix."""
    w2 = np.einsum("jb,lb->jlb", w, w).reshape(4, 3)
    flat = _mode_contract(g, w2, n)
    t = flat.reshape((2, 2) * n)
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return t.transpose(perm).reshape(2**n, 2**n)


# ---------------------------------------------------------------------------
# the multiplier system
# ---------------------------------------------------------------------------

@dataclass
class TrinomialSolution:
    params: TrinomialParams
    utility: Utility
    nu: np.ndarray
    lam: np.ndarray
    terminal_wealth: np.ndarray
    value: float
    residuals: np.ndarray
    iterations: int  # top-level Newton steps, not those of the one-period starts
    start: str  # "product" or "uniform", see _start_shape
    residual_history: list = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def budget_residuals(
    params: TrinomialParams, terminal_wealth, nu=None
) -> np.ndarray:
    """E^{P^j}[rho^-N V_N] - v for every product measure."""
    pair = extremal_measures(params)
    w = pair.as_matrix()
    n = params.n_periods
    disc = params.rho ** (-n)
    f = disc * np.asarray(terminal_wealth, dtype=float)
    return _aggregate_over_measures(f, w, n) - params.v


def _start_shape(params, utility, nu, n, tol):
    """Newton start shape and its name, "product" or "uniform".

    The Kronecker product of the one-period optima when nu is the product
    of its marginals (see the module docstring); else, and at N = 1, which
    ends the recursion, the uniform shape.
    """
    uniform = np.full(2**n, 1.0 / 2**n)
    if n < 2:
        return uniform, "uniform"
    cube = nu.reshape((3,) * n)
    marginals = [cube.sum(axis=tuple(a for a in range(n) if a != t)) for t in range(n)]
    if not np.allclose(functools.reduce(np.kron, marginals), nu, rtol=1e-9, atol=0):
        return uniform, "uniform"
    one_period = replace(params, n_periods=1)
    shape = np.array([1.0])
    for m in marginals:
        lam = solve_lambda_system(one_period, utility, m / m.sum(), tol=tol).lam
        shape = np.kron(shape, lam / lam.sum())
    return shape, "product"


def solve_lambda_system(
    params: TrinomialParams,
    utility: Utility,
    nu,
    *,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> TrinomialSolution:
    """Damped Newton on the 2^N budget equations.

    The iteration minimizes the convex dual v sum(lam) + E^nu[conjugate(y)]
    with y = rho^-N sum_j lam_j dP^j/dnu; its gradient is exactly the
    vector of budget residuals, so backtracking on the dual keeps the
    iteration globally convergent and inside the domain y > 0.
    """
    if params.n_periods > TRINOMIAL_MAX_PERIODS:
        raise AdmissibilityError(
            "trinomial period count capped at %d" % TRINOMIAL_MAX_PERIODS
        )
    nu = coerce_path_anticipation(params, nu)
    pair = extremal_measures(params)
    w = pair.as_matrix()
    n = params.n_periods
    rho_n = params.rho**n
    disc = 1.0 / rho_n
    v = params.v

    def dual_point(lam):  # y = rho^-N sum_j lam_j dP^j/dnu on every path
        return disc * _mixture_over_paths(lam, w, n) / nu

    def residuals(y):
        f = disc * utility.inverse_marginal(y)
        return _aggregate_over_measures(f, w, n) - v

    def dual(lam, y):
        return v * float(lam.sum()) + float(np.dot(nu, utility.conjugate(y)))

    shape, start = _start_shape(params, utility, nu, n, tol)
    mean = _mixture_over_paths(shape, w, n)
    lam = _closed_form(utility, mean, mean / nu, float(params.rho), n, float(v))[0] * shape
    y = dual_point(lam)
    if not np.all(y > 0):
        raise ConvergenceError("initial multiplier scale left the dual domain")
    res = residuals(y)
    g_val = dual(lam, y)
    history = [float(np.max(np.abs(res)))]
    scale = max(1.0, abs(v))

    for iteration in range(max_iter + 1):
        if history[-1] <= tol * scale:
            return TrinomialSolution(
                params=params,
                utility=utility,
                nu=nu,
                lam=lam,
                terminal_wealth=np.asarray(utility.inverse_marginal(y), dtype=float),
                value=float(np.dot(nu, utility.evaluate(utility.inverse_marginal(y)))),
                residuals=res,
                iterations=iteration,
                start=start,
                residual_history=history,
            )
        if iteration == max_iter:  # converged on none of the max_iter steps
            break
        gmat = _gram_matrix(utility.inverse_marginal_prime(y) / nu, w, n)
        jac = disc**2 * gmat
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            step = -res  # gradient fallback; dual gradient is the residual
        t = 1.0
        accepted = False
        res_norm = float(np.linalg.norm(res))
        for _ in range(80):
            cand = lam + t * step
            y_cand = dual_point(cand)
            if np.all(y_cand > 0):
                g_cand = dual(cand, y_cand)
                res_cand = residuals(y_cand)
                # global phase: decrease the dual; local phase: once dual
                # improvements drop under float resolution, Newton residual
                # contraction takes over
                if (
                    g_cand < g_val
                    or float(np.linalg.norm(res_cand)) < res_norm
                    or t < 1e-13
                ):
                    lam, y, g_val, res = cand, y_cand, g_cand, res_cand
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            raise ConvergenceError(
                "line search failed at residual %.3e" % history[-1], history
            )
        history.append(float(np.max(np.abs(res))))

    raise ConvergenceError(
        "multiplier system did not converge: residual %.3e after %d iterations"
        % (history[-1], max_iter),
        history,
    )


def optimal_terminal_wealth_trinomial(
    lam, params: TrinomialParams, utility: Utility, nu
) -> np.ndarray:
    """I( sum_j lam_j rho^-N dP^j/dnu ) per path."""
    nu = coerce_path_anticipation(params, nu)
    pair = extremal_measures(params)
    w = pair.as_matrix()
    n = params.n_periods
    mix = _mixture_over_paths(np.asarray(lam, dtype=float), w, n)
    y = params.rho ** (-n) * mix / nu
    if np.any(y <= 0):
        raise DomainError("multiplier mixture left the domain of I on some path")
    return np.asarray(utility.inverse_marginal(y), dtype=float)


# ---------------------------------------------------------------------------
# wealth process and hedging under a fixed interior measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicabilityReport:
    ok: bool
    worst_node: str
    worst_gap: float
    tolerance: float


def _node_prices(params: TrinomialParams, dtype) -> list[np.ndarray]:
    """Stock price at every node: one array per depth, in base-3 prefix order."""
    mult = np.array(params.multipliers, dtype=dtype)
    levels = [np.array([params.s], dtype=dtype)]
    for _ in range(params.n_periods):
        levels.append(np.outer(levels[-1], mult).ravel())
    return levels


def trinomial_wealth_and_delta(
    params: TrinomialParams,
    terminal_wealth,
    *,
    t: float = 0.5,
    rtol: float = 1e-7,
):
    """Wealth tree and risky holdings on the non-recombining path tree.

    Wealth is the discounted conditional expectation of the terminal claim
    under the interior measure with mixing weight t.  Holdings at a node
    use the top/bottom difference quotient; replicability demands all
    three pairwise quotients agree to `rtol`, and a violation raises
    `ReplicationError` naming the worst node: the first node, in
    depth-then-lexicographic order, with the strictly largest gap (NaN
    gaps never count).

    Returns (wealth, deltas, report) where both trees are read-only
    `LevelView`s keyed by path prefix strings ("" for the root): wealth
    deepest level first, deltas root first, each level in u<m<d
    lexicographic order.  Each level is one array pass; a prefix's index is
    its base-3 number, and `.levels[depth]` holds the level's array.
    """
    n = params.n_periods
    pair = extremal_measures(params)
    q = np.array([float(x) for x in interior_measure(pair, t)])
    terminal = np.array(terminal_wealth, dtype=float)
    if terminal.shape != (3**n,):
        raise ValueError("terminal wealth must have 3^N entries")

    # levels[d] holds the wealth of every depth-d node.  Each node's
    # expectation is a stacked (1x3)@(3,) product, which numpy evaluates as
    # a length-3 dot that rounds exactly as np.dot; one (K,3)@(3,) product
    # would go through BLAS gemv and round differently.
    levels = {n: terminal}
    for depth in range(n - 1, -1, -1):
        levels[depth] = (levels[depth + 1].reshape(-1, 1, 3) @ q)[:, 0] / float(params.rho)

    a, b, c = params.multipliers
    prices = _node_prices(params, _exact_dtype((params.s, a, b, c)))
    deltas = LevelView({}, TRINOMIAL_OUTCOMES)
    worst_gap, worst = 0.0, None
    for depth in range(n):
        s_node = prices[depth]
        up, mid, down = levels[depth + 1].reshape(-1, 3).T
        quotients = np.stack([
            (up - mid) / (s_node * (a - b)).astype(float),
            (mid - down) / (s_node * (b - c)).astype(float),
            (up - down) / (s_node * (a - c)).astype(float),
        ])
        spread = np.fmax.reduce(quotients) - np.fmin.reduce(quotients)
        scale = np.fmax(
            np.fmax(1.0, np.abs(quotients[2])),
            np.abs(levels[depth]) / s_node.astype(float),
        )
        gap = spread / scale
        j = int(np.argmax(np.where(np.isnan(gap), -np.inf, gap)))
        if gap[j] > worst_gap:
            worst_gap, worst = float(gap[j]), np.unravel_index(j, (3,) * depth)
        deltas.levels[depth] = quotients[2].copy()
    worst_node = "" if worst is None else "".join(TRINOMIAL_OUTCOMES[k] for k in worst) or "<root>"
    report = ReplicabilityReport(
        ok=worst_gap <= rtol, worst_node=worst_node, worst_gap=worst_gap, tolerance=rtol
    )
    if not report.ok:
        raise ReplicationError(
            "pairwise difference quotients disagree at node %r (gap %.3e > %g); "
            "the claim is not replicable" % (worst_node, worst_gap, rtol)
        )
    return LevelView(levels, TRINOMIAL_OUTCOMES), deltas, report


def simulate_trinomial_strategy(
    params: TrinomialParams, deltas: LevelView | dict, v0: float | None = None
) -> LevelView:
    """Forward self-financing wealth along every path given nodal holdings.

    Steps forward one depth at a time over every node at that depth, reading
    a `LevelView`'s level arrays directly and a dict key by key, and
    returns a {path: wealth} `LevelView` in u<m<d lexicographic order.
    """
    v = params.v if v0 is None else v0
    dtype = _exact_dtype((params.s, *params.multipliers, params.rho, v))
    prices = _node_prices(params, dtype)
    rho = params.rho
    wealth = np.array([v], dtype=dtype)
    for depth in range(params.n_periods):
        d = deltas.levels[depth] if isinstance(deltas, LevelView) else [
            deltas[p] for p in path_strings(depth)]
        d = np.array(d, dtype=dtype)
        bond = (wealth - d * prices[depth]) * rho
        children = prices[depth + 1].reshape(-1, 3)
        wealth = (bond[:, None] + d[:, None] * children).ravel()
    return LevelView({params.n_periods: wealth}, TRINOMIAL_OUTCOMES)
