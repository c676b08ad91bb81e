"""Probability measures on binomial lattices.

Everything here is written in plain Python arithmetic so that
`fractions.Fraction` inputs produce exact rational transition trees; the
golden-figure checks rely on that.  Floats work the same way with the usual
tolerances.

The central construction is the minimal measure associated with an
anticipated terminal distribution nu: the mixture of risk-neutral bridge
laws with weights nu.  On a binomial lattice it stays Markov, so it is
represented by per-node transition probabilities.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import AdmissibilityError, DomainError
from .markets import BINOMIAL_OUTCOMES, BinomialParams, LevelView, _exact_dtype, _is_exact

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Anticipation:
    """Distribution over a lattice's terminal nodes (the weak information).

    Entries must sum to one.  Strictly positive entries are required for
    measure equivalence; `allow_zero=True` switches on pruning mode, where
    zero-probability terminal nodes are dropped before solving.
    """

    weights: tuple
    allow_zero: bool = False

    def __post_init__(self):
        w = self.weights
        if len(w) < 1:
            raise ValueError("anticipation needs at least one entry")
        total = sum(w)
        if _is_exact(total):
            ok = total == 1
        else:
            ok = abs(total - 1.0) <= _SUM_TOL
        if not ok:
            raise ValueError("anticipation weights must sum to 1, got %s" % (total,))
        for i, x in enumerate(w):
            if x < 0:
                raise ValueError("anticipation entry %d is negative" % i)
            if x == 0 and not self.allow_zero:
                raise ValueError(
                    "anticipation entry %d is zero; zero entries break measure "
                    "equivalence (use allow_zero=True for pruning mode)" % i
                )

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    @classmethod
    def of(cls, weights: Sequence, allow_zero: bool = False) -> "Anticipation":
        if isinstance(weights, Anticipation):
            return weights
        return cls(tuple(weights), allow_zero=allow_zero)

    @classmethod
    def uniform(cls, n: int, exact: bool = False) -> "Anticipation":
        w = Fraction(1, n) if exact else 1.0 / n
        return cls((w,) * n)


class BinomialMeasureTree:
    """Per-node transition probabilities of a measure on binomial paths."""

    def __init__(self, up_probabilities: Sequence[Sequence]):
        self.up = tuple(tuple(level) for level in up_probabilities)
        for n, level in enumerate(self.up):
            if len(level) != n + 1:
                raise ValueError("level %d must hold %d transition entries" % (n, n + 1))
            for p in level:
                if not 0 <= p <= 1:
                    raise ValueError("transition probability outside [0, 1]: %s" % (p,))
        self.n_periods = len(self.up)

    def transition(self, n: int, i: int):
        """(up, down) transition pair at node (n, i)."""
        p = self.up[n][i]
        return p, 1 - p

    def path_probability(self, path: str):
        prob = None
        i = 0
        for n, step in enumerate(path):
            up = self.up[n][i]
            factor = up if step == "u" else 1 - up
            prob = factor if prob is None else prob * factor
            if step == "d":
                i += 1
        return prob if prob is not None else 1

    def path_probabilities(self) -> tuple[np.ndarray, np.ndarray]:
        """Probability and down-count of every path, in `paths()` order.

        A path's index is its base-2 number (u=0, d=1, first step most
        significant), so each period doubles both arrays in one pass.
        Exact (int/Fraction) transitions give an object array of exact
        products; float ones round exactly as `path_probability` does.
        """
        probs = np.ones(1, dtype=_exact_dtype(p for level in self.up for p in level))
        downs = np.zeros(1, dtype=np.int64)
        for level in self.up:
            up = np.array(level, dtype=probs.dtype)[downs]
            probs = np.column_stack((probs * up, probs * (1 - up))).ravel()
            downs = np.column_stack((downs, downs + 1)).ravel()
        return probs, downs

    def node_probabilities(self, n: int) -> list:
        """Distribution over nodes (n, i) induced by the transitions."""
        dist = [1]
        for level in range(n):
            nxt = [0] * (level + 2)
            for i, mass in enumerate(dist):
                up = self.up[level][i]
                nxt[i] = nxt[i] + mass * up
                nxt[i + 1] = nxt[i + 1] + mass * (1 - up)
            dist = nxt
        return dist

    def terminal_distribution(self) -> list:
        return self.node_probabilities(self.n_periods)

    def paths(self):
        for tup in itertools.product(BINOMIAL_OUTCOMES, repeat=self.n_periods):
            yield "".join(tup)

    def martingale_gap(self, params: BinomialParams) -> float:
        """Worst node-wise error of E[S_{n+1} | node] / (1+r) = S_node; S_node cancels."""
        rise, fall = 1 + params.h, 1 - params.k
        return max((abs(float((up * rise + (1 - up) * fall) / params.rho - 1))
                    for level in self.up for up in level), default=0.0)


def risk_neutral_binomial(params: BinomialParams) -> BinomialMeasureTree:
    """The unique equivalent martingale measure of the binomial market.

    Constant transitions p = (r+k)/(h+k) up and 1-p down, from the
    one-period martingale condition p(1+h) + (1-p)(1-k) = 1+r.
    """
    violations = params.arbitrage_violations()
    if violations:
        raise AdmissibilityError("; ".join(violations))
    p = (params.r + params.k) / (params.h + params.k)
    return BinomialMeasureTree([[p] * (n + 1) for n in range(params.n_periods)])


def minimal_measure(base: BinomialMeasureTree, nu) -> BinomialMeasureTree:
    """Mixture of the base measure's bridge laws with terminal weights nu.

    The path probability is base(path) * nu(x) / base(S_N = x) on paths
    ending at terminal x, and for a Markov base the result is Markov again.
    Computed by one backward sweep of the likelihood ratio
    H(n, i) = E_base[nu(X)/base(X) | node], whose transition ratios give
    the new tree; the terminal distribution of the output equals nu
    identically (exactly so under rational arithmetic).

    In pruning mode (nu with zeros) nodes unreachable under the new measure
    keep the base transitions; they carry zero probability.
    """
    nu = Anticipation.of(nu)
    n = base.n_periods
    if len(nu) != n + 1:
        raise ValueError(
            "anticipation has %d entries but the lattice has %d terminal nodes"
            % (len(nu), n + 1)
        )
    terminal = base.terminal_distribution()
    g = [nu[i] / terminal[i] for i in range(n + 1)]
    h = [None] * (n + 1)
    h[n] = list(g)
    for level in range(n - 1, -1, -1):
        up_level = base.up[level]
        h[level] = [
            up_level[i] * h[level + 1][i] + (1 - up_level[i]) * h[level + 1][i + 1]
            for i in range(level + 1)
        ]
    new_up = []
    for level in range(n):
        row = []
        for i in range(level + 1):
            denom = h[level][i]
            if denom == 0:
                row.append(base.up[level][i])
            else:
                row.append(base.up[level][i] * h[level + 1][i] / denom)
        new_up.append(row)
    return BinomialMeasureTree(new_up)


def binomial_transition_formula(level_from_end: int, i: int, nu, *, n_periods: int):
    """Closed-form minimal-measure transitions on an N-period binomial tree.

    `level_from_end` = l counts periods remaining (the node sits at time
    N - l with i down-moves so far).  With w_m = nu_m / C(N, m),

        up   = sum_{j<l} C(l-1, j) w_{i+j}  /  sum_{j<=l} C(l, j) w_{i+j}

    and down = 1 - up.  l = N degenerates to direct conditioning on the
    terminal distribution.  Must agree with `minimal_measure` node for
    node; the combinatorial form is the cross-check.
    """
    n = n_periods
    l = level_from_end
    if not 1 <= l <= n:
        raise IndexError("periods-remaining index out of range: l=%d" % l)
    if not 0 <= i <= n - l:
        raise IndexError("down-count out of range: i=%d at l=%d" % (i, l))
    nu = Anticipation.of(nu, allow_zero=True)
    if len(nu) != n + 1:
        raise ValueError("anticipation length must be N + 1")
    w = [nu[m] / math.comb(n, m) for m in range(n + 1)]
    num = sum(math.comb(l - 1, j) * w[i + j] for j in range(l))
    den = sum(math.comb(l, j) * w[i + j] for j in range(l + 1))
    if den == 0:
        raise ZeroDivisionError("node (l=%d, i=%d) unreachable under nu" % (l, i))
    up = num / den
    return up, 1 - up


@dataclass(frozen=True)
class RadonNikodym:
    """Per-path ratio dP/dQ with terminal-measurability metadata."""

    per_path: LevelView
    terminal_measurable: bool
    terminal_values: tuple | None
    expectation_under_denominator: float

    def __getitem__(self, path: str):
        return self.per_path[path]


def radon_nikodym(p: BinomialMeasureTree, q: BinomialMeasureTree) -> RadonNikodym:
    """Ratio P(path)/Q(path) for measures on the same binomial path space.

    Q must be strictly positive on every path; offending paths are named.
    The ratio is flagged terminal-measurable when it is constant across all
    paths sharing a terminal node (exact equality for rational inputs,
    1e-12 relative otherwise).  `per_path` is a read-only `LevelView` over
    the ratio array, in `paths()` order.
    """
    if p.n_periods != q.n_periods:
        raise ValueError("measures live on different lattices")
    pp, downs = p.path_probabilities()
    qq, _ = q.path_probabilities()
    zero = np.flatnonzero(qq == 0)
    if zero.size:
        paths = list(p.paths())
        raise DomainError(
            "denominator measure vanishes on paths: %s"
            % ", ".join(paths[i] for i in zero)
        )
    ratios = pp / qq
    # each path is compared with the first path of its terminal node,
    # u^(N-i) d^i, whose index is 2^i - 1
    first = (1 << np.arange(p.n_periods + 1)) - 1
    refs = ratios[first]
    ref = refs[downs]
    exact = np.zeros(len(ratios), dtype=bool)
    if ratios.dtype == object:
        is_exact = np.frompyfunc(_is_exact, 1, 1)
        exact = (is_exact(ratios) & is_exact(ref)).astype(bool)
    same = np.empty(len(ratios), dtype=bool)
    same[exact] = ratios[exact] == ref[exact]
    loose_val = ratios[~exact].astype(float)
    loose_ref = ref[~exact].astype(float)
    same[~exact] = np.abs(loose_val - loose_ref) <= 1e-12 * np.maximum(
        np.abs(loose_ref), 1e-300
    )
    same[first] = True
    measurable = bool(np.all(same))
    return RadonNikodym(
        per_path=LevelView({p.n_periods: ratios}, BINOMIAL_OUTCOMES),
        terminal_measurable=measurable,
        terminal_values=tuple(refs.tolist()) if measurable else None,
        expectation_under_denominator=float(np.sum(qq * ratios)),
    )


_DEFAULT_TEST_FUNCTIONS: dict[str, Callable] = {
    "square": lambda x: x * x,
    "xlogx": lambda x: np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0),
    "exp": np.exp,
}


@dataclass
class MinimalityReport:
    """Outcome of the brute-force minimality check."""

    minimal_values: dict = field(default_factory=dict)
    worst_gap: dict = field(default_factory=dict)
    n_samples: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_minimality(
    base: BinomialMeasureTree,
    nu,
    *,
    n_samples: int = 2000,
    seed: int = 0,
    margin: float = 1e-9,
    test_functions: dict[str, Callable] | None = None,
    grid_points: int = 4,
) -> MinimalityReport:
    """Brute-force check that the minimal measure minimizes E[phi(dQ/dP)].

    Candidate measures Q range over the terminal-marginal constraint set:
    per terminal node the conditional weights over its paths follow a
    Dirichlet sample (plus an interior grid), scaled by nu.  For every
    sampled Q and every convex phi the expectation under the base measure
    must weakly exceed the one achieved by the minimal measure.
    """
    nu = Anticipation.of(nu)
    n = base.n_periods
    if n > 12:
        raise ValueError("brute-force minimality check is meant for small lattices")
    phis = dict(test_functions or _DEFAULT_TEST_FUNCTIONS)
    base_probs, downs = base.path_probabilities()
    base_probs = base_probs.astype(float)
    n_paths = len(base_probs)
    terminal = np.array([float(x) for x in base.terminal_distribution()])
    nu_f = np.array([float(x) for x in nu.weights])

    groups = [np.flatnonzero(downs == i) for i in range(n + 1)]
    cond = base_probs / terminal[downs]  # bridge weights within each group
    q_min = nu_f[downs] * cond  # the minimal measure itself

    rng = np.random.default_rng(seed)
    candidates = []
    for _ in range(n_samples):
        q = np.empty(n_paths)
        for i, idx in enumerate(groups):
            w = rng.dirichlet(np.ones(len(idx)))
            q[idx] = nu_f[i] * w
        candidates.append(q)
    # interior grid per group: barycentric points pushed off the boundary
    for i, idx in enumerate(groups):
        size = len(idx)
        if size == 1:
            continue
        for combo in itertools.product(range(1, grid_points + 1), repeat=size):
            w = np.array(combo, dtype=float)
            w /= w.sum()
            q = q_min.copy()
            q[idx] = nu_f[i] * w
            candidates.append(q)

    report = MinimalityReport(n_samples=len(candidates))
    for name, phi in phis.items():
        target = float(np.dot(base_probs, phi(q_min / base_probs)))
        report.minimal_values[name] = target
        worst = np.inf
        for q in candidates:
            val = float(np.dot(base_probs, phi(q / base_probs)))
            gap = val - target
            worst = min(worst, gap)
            if gap < -margin:
                report.violations.append(
                    "phi=%s: sampled measure beats the minimal one by %.3e"
                    % (name, -gap)
                )
        report.worst_gap[name] = worst
    return report
