"""Partitions, omega indices, and the elementary-to-monomial basis change.

An omega index is a tuple (i_1, i_2, ...) counting how many parts of the
matching partition equal 1, 2, ...; its weight is sum l*i_l. We keep omega
tuples trimmed of trailing zeros so they double as cobordism exponent keys.
"""

from functools import lru_cache
from itertools import groupby
from math import comb


def trim(omega):
    omega = tuple(omega)
    while omega and omega[-1] == 0:
        omega = omega[:-1]
    return omega


def omega_weight(omega):
    return sum((l + 1) * m for l, m in enumerate(omega))


def partition_to_omega(lam):
    m = max(lam, default=0)
    omega = [0] * m
    for p in lam:
        if p:
            omega[p - 1] += 1
    return tuple(omega)


def partitions(n, max_part=None):
    """All partitions of n as weakly decreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def omegas_of_weight(w):
    """All trimmed omega tuples of the given weight, sorted."""
    return sorted(partition_to_omega(lam) for lam in partitions(w))


def conjugate_partition(lam):
    lam = [p for p in lam if p]
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= k) for k in range(1, lam[0] + 1))


def _row_choices(groups, r):
    """(ways, column sums left) for one row of sum r over column groups.

    groups lists (remaining sum v, number of columns c), v decreasing. Taking
    k columns of a group leaves c - k at v and k at v - 1, in comb(c, k) ways;
    the column sums left stay weakly decreasing.
    """
    if not groups:
        if r == 0:
            yield 1, ()
        return
    (v, c), rest = groups[0], groups[1:]
    for k in range(min(c, r) + 1):
        for ways, tail in _row_choices(rest, r - k):
            yield comb(c, k) * ways, (v,) * (c - k) + (v - 1,) * k + tail


def _zero_one_count(rows, cols, memo):
    """Number of 0-1 matrices with row sums rows and column sums cols.

    Both are partitions without zeros. The count depends only on the multiset
    of column sums, so memo is keyed on the sorted tuple.
    """
    if not rows:
        return 0 if cols else 1
    key = (rows, cols)
    if key not in memo:
        groups = tuple((v, len(tuple(g))) for v, g in groupby(cols))
        memo[key] = sum(ways * _zero_one_count(rows[1:], tuple(v for v in left if v), memo)
                        for ways, left in _row_choices(groups, rows[0]))
    return memo[key]


@lru_cache(maxsize=None)
def transition_table(n):
    """The e -> m basis change in weight n, as sparse rows.

    T[nu][lambda] = number of 0-1 matrices with row sums nu' and column sums
    lambda is the coefficient of m_lambda in e_{nu'} (Macdonald, Symmetric
    Functions and Hall Polynomials, I.6, (6.6)). It is unitriangular in
    dominance order, so lower unitriangular in lexicographic order. Returns
    {xi: (omega, row)} with the rows in lexicographic order of nu: xi and
    omega are the omega indices of nu' and nu, and e^xi = sum row[omega'] *
    m_{lambda(omega')}. row[omega] = 1 is the diagonal, and every other
    omega' in row is the diagonal of an earlier row.
    """
    lams = sorted(partitions(n))
    memo = {}
    T = [[_zero_one_count(conjugate_partition(nu), lam, memo) for lam in lams] for nu in lams]
    if any(t[i] != 1 or any(t[i + 1:]) for i, t in enumerate(T)):
        raise AssertionError("e to m transition matrix is not unitriangular")
    omegas = [partition_to_omega(lam) for lam in lams]
    return {partition_to_omega(conjugate_partition(nu)): (om, {o: c for o, c in zip(omegas, t) if c})
            for nu, om, t in zip(lams, omegas, T)}
