"""Root bracketing for the scalar budget equation.

The solvers take the budget multiplier in closed form.  This bounded
routine is the independent reference route, `solve_lambda(method=
"bracket")` on the binomial lattice, and the test oracles' route: scan
from 1 by factors of 10 until the sign changes, then bisect.  It ends in
a root or in a `ConvergenceError` that carries the brackets it visited.
"""
from __future__ import annotations

import math
from typing import Callable

from .errors import ConvergenceError

# Doubles span 10^-324 .. 10^308, so 400 decades from 1 run past either end.
_MAX_DECADES = 400
# A decade-wide bracket shrinks to two adjacent doubles in about 60 halvings.
_MAX_BISECTIONS = 200


def decreasing_root(f: Callable[[float], float], rtol: float) -> float:
    """Root of a strictly decreasing f on (0, inf).

    Bisection stops once the bracket [lo, hi] satisfies hi - lo <= rtol*lo
    and returns its midpoint; rtol = machine epsilon means "until lo and hi
    are adjacent doubles".  A scan that never straddles the root, a bracket
    that reaches 0 or infinity, and a bisection that cannot get narrower
    than rtol all raise `ConvergenceError` with the (lo, hi) history.
    """
    lo = hi = 1.0
    f1 = f(1.0)
    history = [(lo, hi)]
    if f1 == 0:
        return 1.0
    if f1 > 0:  # f is still positive: the root lies above 1
        for _ in range(_MAX_DECADES):
            hi *= 10.0
            history.append((lo, hi))
            if f(hi) <= 0:
                break
        else:
            raise ConvergenceError(
                "bracketing failed: f stays positive on [1, %g]" % hi, history
            )
        lo = hi / 10.0
    elif f1 < 0:
        for _ in range(_MAX_DECADES):
            lo /= 10.0
            history.append((lo, hi))
            if f(lo) >= 0:
                break
        else:
            raise ConvergenceError(
                "bracketing failed: f stays negative on [%g, 1]" % lo, history
            )
        hi = lo * 10.0
    else:
        raise ConvergenceError("f(1) is %r; cannot bracket a root" % f1, history)
    history.append((lo, hi))
    if not 0.0 < lo <= hi < math.inf:
        raise ConvergenceError(
            "bracket [%g, %g] left the range of positive doubles" % (lo, hi), history
        )
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= rtol * lo:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
        history.append((lo, hi))
    raise ConvergenceError(
        "bisection stalled at [%.17g, %.17g] after %d steps, wider than "
        "rtol=%g" % (lo, hi, _MAX_BISECTIONS, rtol),
        history,
    )
