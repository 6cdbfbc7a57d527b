"""Reference implementations the tests compare the library against."""
import math

import numpy as np

from sigbound.dirround import next_up
from sigbound.engine import _GRID_HI, _GRID_LO, _GRID_SIZE


def ratio_grids_per_r(table):
    """The ratio curves with both of them updated inside the r loop.

    `engine._ratio_grids` takes rl from ru after the loop and skips the grid
    points where g^r has reached its cap; both must leave every bit as this
    direct form has it.
    """
    vals = table.value_floats()
    inf = np.inf
    g = np.geomspace(_GRID_LO, _GRID_HI, _GRID_SIZE)
    np.maximum.accumulate(g, out=g)
    qr = g.copy()
    ru = np.ones(_GRID_SIZE)
    rl = np.zeros(_GRID_SIZE)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for r in range(1, table.r_max + 1):
            lam = vals[r]
            if not math.isfinite(lam):
                break
            if r > 1:
                qr = np.minimum(np.nextafter(qr * g, 0.0), 1e300)
            num = next_up(lam - 1.0)
            cap = 1e9 * lam if math.isfinite(1e9 * lam) else 1e300
            qe = np.minimum(qr, cap)
            den = np.nextafter(qe - 1.0, -inf)
            ok = den > 0.0
            cand = np.where(ok, np.nextafter(num / den, inf), inf)
            np.minimum(ru, cand, out=ru)
            f = np.nextafter(1.0 - cand, -inf)
            np.maximum(rl, np.where(ok, f, 0.0), out=rl)
    return g, ru, rl


def naive_sigma_upto(n):
    """sigma(0..n) as a list (entry 0 is 0), by adding every divisor to its
    multiples."""
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            out[m] += d
    return out
