"""Market models and lattices.

Three model classes are supported:

* `BinomialParams` -- one risky asset moving to s(1+h) or s(1-k) each
  period next to a risk-free asset paying 1+r.  The lattice recombines and
  node (n, i) means "time n after i down-moves".
* `TrinomialParams` -- one risky asset with gross multipliers a > b > c.
  The lattice recombines and a terminal node is identified by the pair
  (#up-moves, #middle-moves).
* `CompleteMarket` -- a general M-state market given by per-period gross
  return matrices over d >= M assets (asset 0 risk-free).  States do not
  recombine; nodes are state-index tuples.  No-arbitrage is checked per
  period, over every node of the depth at once.

Price equality at recombining nodes is structural (by index); prices are
never compared in floating point to decide lattice topology.  Arithmetic is
kept in plain Python so `fractions.Fraction` inputs stay exact end to end.
"""
from __future__ import annotations

import itertools
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import AdmissibilityError

# Exhaustive path enumeration is part of the contract, so period counts are
# hard-capped: 2^20 binomial paths, 3^12 trinomial paths / 2^12 product
# measures, and M^n <= 2^20 for the general market.
BINOMIAL_MAX_PERIODS = 20
TRINOMIAL_MAX_PERIODS = 12
GENERAL_MAX_PATHS = 2**20

BINOMIAL_OUTCOMES = "ud"
TRINOMIAL_OUTCOMES = "umd"


def _require(cond: bool, message: str):
    if not cond:
        raise AdmissibilityError(message)


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def _exact_dtype(values: Iterable):
    """Array dtype that computes as plain Python would on these values.

    object when any value is int/Fraction, so exact inputs stay exact in
    array passes; float64 otherwise, which rounds as Python floats do.
    """
    return object if any(_is_exact(x) for x in values) else float


class LevelView(Mapping):
    """Read-only view of per-depth arrays, keyed by node.

    levels[d] holds one entry (a row when 2-D) per depth-d node, at the
    node's base-k number, first step most significant.  Keys are strings
    over `steps` ("ud", "umd") or, for an int M, tuples over range(M).  It
    iterates the depths in `levels` order, each in index order.
    """

    def __init__(self, levels: dict, steps):
        self.levels = levels
        self._str = isinstance(steps, str)
        self._digits = {s: i for i, s in enumerate(steps if self._str else range(steps))}

    def __getitem__(self, key):
        level = self.levels.get(len(key)) if isinstance(key, str if self._str else tuple) else None
        if level is None:
            raise KeyError(key)
        idx = 0
        for step in key:
            if step not in self._digits:
                raise KeyError(key)
            idx = idx * len(self._digits) + self._digits[step]
        return level[idx] if level.ndim > 1 else level.item(idx)

    def __iter__(self):
        for depth in self.levels:
            paths = itertools.product(list(self._digits), repeat=depth)
            yield from map("".join, paths) if self._str else paths

    def __len__(self) -> int:
        return sum(map(len, self.levels.values()))

    def items(self):
        return _LevelItems(self)

    def values(self):
        return _LevelValues(self)

    def __repr__(self) -> str:
        return "LevelView(%r)" % dict(self)


class _LevelItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.values())


class _LevelValues(ValuesView):
    """Values read off the level arrays, not looked up key by key."""

    def __iter__(self):
        for level in self._mapping.levels.values():
            yield from level if level.ndim > 1 else level.tolist()


@dataclass(frozen=True)
class BinomialParams:
    """Recombining binomial market: s, up-return h, down magnitude k, rate r.

    Construction checks shape constraints (positive prices, 1-k > 0, at
    least one period).  The no-arbitrage inequality h > r > -k is *not*
    enforced here so that `validate_no_arbitrage` can report on bad
    parameter sets; lattice builders and solvers enforce it.
    """

    s: float
    h: float
    k: float
    r: float
    n_periods: int
    v: float

    def __post_init__(self):
        _require(self.s > 0, "initial price must satisfy s > 0")
        _require(self.v > 0, "initial wealth must satisfy v > 0")
        _require(
            isinstance(self.n_periods, int) and self.n_periods >= 1,
            "period count must be an integer >= 1",
        )
        _require(1 - self.k > 0, "down factor must satisfy 1 - k > 0")

    @property
    def rho(self):
        return 1 + self.r

    def arbitrage_violations(self) -> list[str]:
        out = []
        if not self.h > self.r:
            out.append("h > r fails (h=%s, r=%s)" % (self.h, self.r))
        if not self.r > -self.k:
            out.append("r > -k fails (r=%s, k=%s)" % (self.r, self.k))
        return out


@dataclass(frozen=True)
class TrinomialParams:
    """Recombining trinomial market with gross multipliers a > b > c > 0."""

    s: float
    a: float
    b: float
    c: float
    r: float
    n_periods: int
    v: float

    def __post_init__(self):
        _require(self.s > 0, "initial price must satisfy s > 0")
        _require(self.v > 0, "initial wealth must satisfy v > 0")
        _require(
            isinstance(self.n_periods, int) and self.n_periods >= 1,
            "period count must be an integer >= 1",
        )
        _require(self.a > self.b > self.c, "branch multipliers must satisfy a > b > c")
        _require(self.c > 0, "bottom multiplier must satisfy c > 0")

    @property
    def rho(self):
        return 1 + self.r

    @property
    def multipliers(self):
        return (self.a, self.b, self.c)

    def arbitrage_violations(self) -> list[str]:
        out = []
        if not self.a > self.rho:
            out.append("a > 1+r fails (a=%s, 1+r=%s)" % (self.a, self.rho))
        if not self.rho > self.c:
            out.append("1+r > c fails (1+r=%s, c=%s)" % (self.rho, self.c))
        return out


class CompleteMarket:
    """General M-state complete market over d >= M assets.

    factors[n] is the M x d matrix of gross returns for period n: entry
    (j, i) multiplies asset i's price when one-period state j occurs.
    Asset 0 must be risk-free (constant column 1+r).  Nodes are tuples of
    state indices; each node has M children and prices are the elementwise
    product of factors along the path, so leaves are in bijection with
    paths and serve as the terminal states.
    """

    def __init__(self, initial_prices: Sequence[float], factors, r: float, v: float):
        self.initial_prices = np.asarray(initial_prices, dtype=float)
        self.factors = [np.asarray(f, dtype=float) for f in factors]
        self.r = float(r)
        self.v = float(v)
        if self.initial_prices.ndim != 1:
            raise AdmissibilityError("initial prices must be a vector")
        if not np.all(self.initial_prices > 0):
            raise AdmissibilityError("asset prices must be strictly positive")
        if not self.factors:
            raise AdmissibilityError("at least one period is required")
        m = self.factors[0].shape[0]
        d = self.initial_prices.shape[0]
        _require(d >= m, "need d >= M assets for completeness")
        for n, f in enumerate(self.factors):
            if f.shape != (m, d):
                raise AdmissibilityError(
                    "factor matrix for period %d must be %d x %d" % (n, m, d)
                )
            if not np.allclose(f[:, 0], 1 + self.r, rtol=0, atol=0):
                raise AdmissibilityError("asset 0 must be risk-free: column 0 == 1+r")
            if np.linalg.matrix_rank(f) < m:
                raise AdmissibilityError(
                    "factor matrix for period %d has rank < M; market not complete" % n
                )
        if m**self.n_periods > GENERAL_MAX_PATHS:
            raise AdmissibilityError(
                "state tree too large: M^n exceeds %d" % GENERAL_MAX_PATHS
            )
        self._independent_cols = [self._pick_independent_columns(f) for f in self.factors]

    @staticmethod
    def _pick_independent_columns(f: np.ndarray) -> list[int]:
        m = f.shape[0]
        cols: list[int] = []
        for i in range(f.shape[1]):
            trial = cols + [i]
            if np.linalg.matrix_rank(f[:, trial]) == len(trial):
                cols.append(i)
            if len(cols) == m:
                break
        return cols

    @property
    def m_states(self) -> int:
        return self.factors[0].shape[0]

    @property
    def d_assets(self) -> int:
        return self.initial_prices.shape[0]

    @property
    def n_periods(self) -> int:
        return len(self.factors)

    @property
    def rho(self) -> float:
        return 1 + self.r

    def nodes(self, n: int) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(self.m_states), repeat=n)

    def leaves(self) -> Iterator[tuple[int, ...]]:
        return self.nodes(self.n_periods)

    def prices_at(self, node: tuple[int, ...]) -> np.ndarray:
        p = self.initial_prices.copy()
        for n, j in enumerate(node):
            p = p * self.factors[n][j]
        return p

    def level_prices(self, n: int) -> np.ndarray:
        """Prices at every depth-n node, one row each in `nodes(n)` order.

        Multiplies in `prices_at`'s order, so each row equals it bit for bit.
        """
        p = self.initial_prices[None, :]
        for f in self.factors[:n]:
            p = (p[:, None, :] * f[None]).reshape(-1, self.d_assets)
        return p

    def price_matrix(self, node: tuple[int, ...]) -> np.ndarray:
        """M x M matrix of next-period prices of the M independent assets."""
        n = len(node)
        cols = self._independent_cols[n]
        cur = self.prices_at(node)[cols]
        return self.factors[n][:, cols] * cur

    def replication_assets(self, n: int) -> list[int]:
        """Asset indices used in the period-n replication system."""
        return list(self._independent_cols[n])

    def period_measure(self, n: int, prices: np.ndarray, nodes=None) -> np.ndarray:
        """One-period martingale state probabilities of period n, one q per depth.

        A node's prices are the initial prices times the factor rows on its
        path, so D^T q = (1+r) s reduces to F_n^T q = (1+r) 1.  Raises on
        non-positive q (arbitrage) or on redundant assets priced
        inconsistently at a row of `prices`, naming the first such node of
        `nodes` (default: `nodes(n)` order).
        """
        f = self.factors[n]
        cols = self._independent_cols[n]
        q = np.linalg.solve(f[:, cols].T, np.full(len(cols), self.rho))
        implied = prices * (q @ f)
        consistent = np.isclose(implied, self.rho * prices, rtol=1e-9, atol=1e-12).all(axis=1)
        if not np.all(q > 0):
            problem, row = "no strictly positive martingale measure at node %r", 0
        elif abs(float(q.sum()) - 1.0) > 1e-9:
            problem, row = "martingale weights at node %r do not sum to one", 0
        elif not consistent.all():
            problem = "redundant assets priced inconsistently at node %r"
            row = int(np.argmin(consistent))
        else:
            return q
        node = np.unravel_index(row, (self.m_states,) * n) if nodes is None else nodes[row]
        raise AdmissibilityError(problem % (tuple(int(j) for j in node),))

    def transition_probabilities(self, node: tuple[int, ...]) -> np.ndarray:
        """`period_measure` of the node's period, checked at this node only."""
        return self.period_measure(len(node), self.prices_at(node)[None], [node])


class BinomialLattice:
    """Recombining binomial price lattice; node (n, i) has had i down-moves."""

    def __init__(self, params: BinomialParams):
        violations = params.arbitrage_violations()
        if violations:
            raise AdmissibilityError("; ".join(violations))
        if params.n_periods > BINOMIAL_MAX_PERIODS:
            raise AdmissibilityError(
                "binomial period count capped at %d for exhaustive path enumeration"
                % BINOMIAL_MAX_PERIODS
            )
        self.params = params
        self.n_periods = params.n_periods

    def price(self, n: int, i: int):
        if not 0 <= i <= n <= self.n_periods:
            raise IndexError("node (%d, %d) outside lattice" % (n, i))
        p = self.params
        return p.s * (1 + p.h) ** (n - i) * (1 - p.k) ** i

    def level_prices(self, n: int) -> list:
        return [self.price(n, i) for i in range(n + 1)]

    @property
    def n_terminal(self) -> int:
        return self.n_periods + 1

    def paths(self) -> Iterator[str]:
        for tup in itertools.product(BINOMIAL_OUTCOMES, repeat=self.n_periods):
            yield "".join(tup)

    @staticmethod
    def path_down_count(path: str) -> int:
        return path.count("d")

    def path_price(self, path: str):
        return self.price(len(path), path.count("d"))


class TrinomialLattice:
    """Recombining trinomial lattice; terminal node = (#up, #middle)."""

    def __init__(self, params: TrinomialParams):
        violations = params.arbitrage_violations()
        if violations:
            raise AdmissibilityError("; ".join(violations))
        if params.n_periods > TRINOMIAL_MAX_PERIODS:
            raise AdmissibilityError(
                "trinomial period count capped at %d for exhaustive path enumeration"
                % TRINOMIAL_MAX_PERIODS
            )
        self.params = params
        self.n_periods = params.n_periods

    def price(self, n: int, n_up: int, n_mid: int):
        if n_up < 0 or n_mid < 0 or n_up + n_mid > n or n > self.n_periods:
            raise IndexError(
                "node (n=%d, up=%d, mid=%d) outside lattice" % (n, n_up, n_mid)
            )
        p = self.params
        return p.s * p.a**n_up * p.b**n_mid * p.c ** (n - n_up - n_mid)

    def terminal_nodes(self) -> list[tuple[int, int]]:
        n = self.n_periods
        return [(i, j) for i in range(n + 1) for j in range(n - i + 1)]

    @property
    def n_terminal(self) -> int:
        n = self.n_periods
        return (n + 1) * (n + 2) // 2

    def terminal_index(self, n_up: int, n_mid: int) -> int:
        n = self.n_periods
        if n_up < 0 or n_mid < 0 or n_up + n_mid > n:
            raise IndexError("not a terminal node: (%d, %d)" % (n_up, n_mid))
        # nodes are listed (i=0, j=0..n), (i=1, j=0..n-1), ...
        return sum(n - t + 1 for t in range(n_up)) + n_mid

    def paths(self) -> Iterator[str]:
        for tup in itertools.product(TRINOMIAL_OUTCOMES, repeat=self.n_periods):
            yield "".join(tup)

    @staticmethod
    def path_terminal(path: str) -> tuple[int, int]:
        return path.count("u"), path.count("m")

    def path_price(self, path: str):
        return self.price(len(path), *self.path_terminal(path))


@dataclass(frozen=True)
class NoArbitrageReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def build_binomial_lattice(params: BinomialParams) -> BinomialLattice:
    return BinomialLattice(params)


def build_trinomial_lattice(params: TrinomialParams) -> TrinomialLattice:
    return TrinomialLattice(params)


def validate_no_arbitrage(model) -> NoArbitrageReport:
    """Report whether a strictly positive martingale measure exists.

    Binomial and trinomial models reduce to parameter inequalities; the
    general market is checked per period, over every node of the depth.
    """
    if isinstance(model, (BinomialParams, TrinomialParams)):
        violations = model.arbitrage_violations()
        return NoArbitrageReport(not violations, tuple(violations))
    if isinstance(model, CompleteMarket):
        try:
            for n in range(model.n_periods):
                model.period_measure(n, model.level_prices(n))
        except AdmissibilityError as exc:
            return NoArbitrageReport(False, (str(exc),))
        return NoArbitrageReport(True, ())
    raise TypeError("unsupported model type %r" % type(model).__name__)
