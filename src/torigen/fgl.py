"""Formal group law of geometric cobordisms, truncated: the addition law
F(u, v) = g^{-1}(g(u) + g(v)) of the logarithm g(u) = u + sum b_i u^{i+1},
b_i = [CP^i]/(i+1), which the fgl verb prints.

The b_i sit on the a-slots of CobordismPoly, so the fgl verb prints b_i as
a<i>. Univariate series are plain coefficient lists (index = power);
multivariate ones are GradedSeries.
"""

from functools import lru_cache

from .exactalg import CobordismPoly, GradedSeries, reverse_series, xvars


def log_series(order):
    """g(u) = u + b_1 u^2 + b_2 u^3 + ... with b_i rendered on the a-slots."""
    out = [CobordismPoly(), CobordismPoly.const(1)]
    out += [CobordismPoly.gen(i - 1) for i in range(2, order + 1)]
    return out


def _as_cob(c):
    return c if isinstance(c, CobordismPoly) else CobordismPoly.const(c)


@lru_cache(maxsize=None)
def exp_series(order):
    """g^{-1}(y) in the b-generators, by series reversion."""
    return tuple(_as_cob(c) for c in reverse_series(list(log_series(order)), order))


def apply_series(coeffs, s):
    """sum coeffs[m] * s^m for a GradedSeries s with zero constant term."""
    out = GradedSeries.const(s.arena, s.order, coeffs[0]) if len(coeffs) else \
        GradedSeries(s.arena, s.order)
    power = GradedSeries.const(s.arena, s.order, 1)
    for m in range(1, min(len(coeffs), s.order + 1)):
        power = power * s
        c = coeffs[m]
        if not (isinstance(c, CobordismPoly) and c.is_zero()):
            out = out + power * c
    return out


def _univariate(arena, order, coeffs, var):
    t = {}
    for m, c in enumerate(coeffs):
        if m > order:
            break
        e = [0] * arena.arity
        e[var] = m
        t[tuple(e)] = c
    return GradedSeries(arena, order, t)


def fgl_addition(order, arena=None):
    """F(u, v) = g^{-1}(g(u) + g(v)) truncated at total degree `order`."""
    if arena is None:
        arena = xvars(2, "u")
    g = log_series(order)
    s = _univariate(arena, order, g, 0) + _univariate(arena, order, g, 1)
    return apply_series(exp_series(order), s)
