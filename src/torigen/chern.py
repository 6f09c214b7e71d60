"""Exact translation between the numbers s_omega and classical Chern numbers.

The dictionary is the integer matrix beta: expanding the orbit polynomial of
shape omega in elementary symmetric polynomials gives
s_omega = sum_xi beta_{omega,xi} c_1^{xi_1} ... c_n^{xi_n}, and the matrix is
unimodular: its inverse is the integer e -> m transition matrix, so Chern
numbers are recovered by an integer matrix-vector product.
"""

from functools import lru_cache

from .exactalg import clean
from .symmfunc import elementary_to_monomial, monomial_to_elementary, omegas_of_weight


class NonIntegerSolution(Exception):
    pass


@lru_cache(maxsize=None)
def beta_matrix(n):
    """(index, rows): index = sorted omega/xi keys, rows[i][j] = beta."""
    index = omegas_of_weight(n)
    pos = {xi: j for j, xi in enumerate(index)}
    rows = []
    for om in index:
        row = [0] * len(index)
        for xi, c in monomial_to_elementary(om).items():
            row[pos[xi]] = c
        rows.append(row)
    return index, rows


def chern_to_s(table, n):
    """Forward application: s_omega = sum beta_{omega,xi} * c^xi."""
    index, rows = beta_matrix(n)
    vals = []
    for xi in index:
        if xi not in table:
            raise KeyError("Chern table missing partition %s" % (xi,))
        vals.append(table[xi])
    return {om: sum(b * v for b, v in zip(row, vals)) for om, row in zip(index, rows)}


def s_to_chern(s, n):
    """c^xi = sum_omega T[xi][omega] s_omega, where T = beta^-1 is the integer
    e -> m matrix; an integer table or NonIntegerSolution."""
    index = omegas_of_weight(n)
    for om in index:
        if om not in s:
            raise KeyError("s table missing omega %s" % (om,))
    out = {}
    for xi in index:
        v = clean(sum(c * s[om] for om, c in elementary_to_monomial(xi).items()))
        if not isinstance(v, int):
            raise NonIntegerSolution("c^%s = %s is not an integer" % (xi, v))
        out[xi] = v
    return out
