"""Formal group law of geometric cobordisms, truncated: the addition law
F(u, v) = g^{-1}(g(u) + g(v)) of the logarithm g(u) = u + sum b_i u^{i+1},
b_i = [CP^i]/(i+1), which the fgl verb, defined here, prints.

The b_i sit on the a-slots of CobordismPoly, and the fgl verb prints them
as b1, b2, ... Series are univariate coefficient lists (index = power) of
ints and CobordismPoly; the law itself is a {(a, b): CobordismPoly} map.
"""

from functools import lru_cache
from math import comb

from .cobordism import CobordismPoly, render_series


class BadLeadingTerm(Exception):
    pass


def series_mul(a, b, order):
    """Truncated product of univariate coefficient lists (index = power)."""
    out = [0] * (order + 1)
    for i, ca in enumerate(a):
        if i > order or _is_zero_coeff(ca):
            continue
        for j, cb in enumerate(b):
            if i + j > order:
                break
            if _is_zero_coeff(cb):
                continue
            out[i + j] = out[i + j] + ca * cb
    return out


def _is_zero_coeff(c):
    return c.is_zero() if isinstance(c, CobordismPoly) else c == 0


def series_compose(h, r, order):
    """h(r(y)) truncated; requires r[0] = 0."""
    if r and not _is_zero_coeff(r[0]):
        raise ValueError("inner series must have zero constant term")
    out = [0] * (order + 1)
    power = [1] + [0] * order
    for i, c in enumerate(h):
        if i > order:
            break
        if i > 0:
            power = series_mul(power, r, order)
        if _is_zero_coeff(c):
            continue
        for j in range(order + 1):
            if not _is_zero_coeff(power[j]):
                out[j] = out[j] + c * power[j]
    return out


def reverse_series(h, order):
    """Compositional inverse of h = y + O(y^2) to the given order.

    Returns r with h(r(y)) = y mod y^(order+1).
    """
    if len(h) < 2 or not _is_zero_coeff(h[0]) or h[1] != 1:
        raise BadLeadingTerm("need h(0)=0 and linear coefficient 1")
    r = [0, 1] + [0] * (order - 1)
    for d in range(2, order + 1):
        c = series_compose(h, r, d)[d]
        r[d] = -c
    return r[: order + 1]


def log_series(order):
    """g(u) = u + b_1 u^2 + b_2 u^3 + ... with b_i on the a-slots."""
    out = [CobordismPoly(), CobordismPoly.const(1)]
    out += [CobordismPoly.gen(i - 1) for i in range(2, order + 1)]
    return out


def _as_cob(c):
    return c if isinstance(c, CobordismPoly) else CobordismPoly.const(c)


@lru_cache(maxsize=None)
def exp_series(order):
    """g^{-1}(y) in the b-generators, by series reversion."""
    return tuple(_as_cob(c) for c in reverse_series(list(log_series(order)), order))


def fgl_addition(order):
    """F(u, v) = g^{-1}(g(u) + g(v)) truncated at total degree `order`:
    {(a, b): CobordismPoly}, the nonzero coefficients of u^a v^b.

    With e = exp_series, F = sum_m e_m (g(u) + g(v))^m. Expanding each power
    binomially, [u^a v^b] F = sum_j H_{a,j} [v^b] g^j with
    H_{a,j} = sum_i C(i + j, i) e_{i+j} [u^a] g^i; g^i starts at u^i, so
    i <= a and j <= b. F(u, 0) = u since e reverts g, and F is symmetric, so
    only 1 <= a <= b is computed.
    """
    e = exp_series(order)
    g = log_series(order)
    powers = [[1] + [0] * order]
    for _ in range(order):
        powers.append(series_mul(powers[-1], g, order))
    law = {(1, 0): CobordismPoly.const(1), (0, 1): CobordismPoly.const(1)}
    for a in range(1, order // 2 + 1):
        h = {j: sum((e[i + j] * comb(i + j, i) * powers[i][a] for i in range(1, a + 1)), CobordismPoly())
             for j in range(1, order - a + 1)}
        for b in range(a, order - a + 1):
            c = sum((h[j] * powers[j][b] for j in range(1, b + 1)), CobordismPoly())
            if not c.is_zero():
                law[a, b] = law[b, a] = c
    return law


# fgl --trunc 24 takes 8.5-11 s on a 2-vCPU VM (20: about 2 s) and prints
# 3 MB; the cost grows about fourfold per four orders
FGL_TRUNC_LIMIT = 24


def cmd_fgl(args):
    from .cli import _emit
    order = 4 if args.trunc is None else args.trunc
    if order < 1:
        raise ValueError("--trunc must be at least 1, got %d" % order)
    if order > FGL_TRUNC_LIMIT:
        raise ValueError("--trunc must be at most %d, got %d" % (FGL_TRUNC_LIMIT, order))
    text = render_series(fgl_addition(order), ("u1", "u2"), "b")
    _emit(args, text, {"order": order, "addition": text})
    return 0
