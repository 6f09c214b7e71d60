"""Partitions, omega indices, and the elementary-to-monomial basis change.

An omega index is a tuple (i_1, i_2, ...) counting how many parts of the
matching partition equal 1, 2, ...; its weight is sum l*i_l. We keep omega
tuples trimmed of trailing zeros so they double as cobordism exponent keys.

The basis change e -> m is built by the Pieri rule: each product e_pi is
its prefix's times one e_r, expanded one orbit polynomial m_mu at a time
(_times_e, memoized on (mu, r), so every weight shares the products).
"""

from functools import lru_cache
from math import comb


def trim(omega):
    omega = tuple(omega)
    while omega and omega[-1] == 0:
        omega = omega[:-1]
    return omega


def pad(omega, n):
    """omega as a list of n entries, trim undone."""
    return list(omega) + [0] * (n - len(omega))


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


@lru_cache(maxsize=None)
def _times_e(mu, r):
    """m_mu * e_r as {rho: coefficient of m_rho}, mu and rho partitions.

    With r zeros counted as parts of mu, e_r raises r of the parts by 1. If
    k_v of the parts equal to v are raised, rho has r_{v+1} parts equal to
    v + 1, and any k_v of those came from v: the coefficient is
    prod_v C(r_{v+1}, k_v) (Macdonald, Symmetric Functions and Hall
    Polynomials, I.6). The k_v fix rho, and rho has at most |rho| parts, so
    this holds in every number of variables >= |rho|.
    """
    states = [((), r, 0, 1)]  # (parts of rho so far, raises left, unraised parts at v + 1, ways)
    for v in range(mu[0] if mu else 0, -1, -1):
        c = mu.count(v) if v else r
        states = [(parts + (v + 1,) * k + (v,) * (c - k), left - k, c - k, ways * comb(kept + k, k))
                  for parts, left, kept, ways in states for k in range(min(c, left) + 1)]
    return {tuple(p for p in parts if p): ways for parts, left, _, ways in states if not left}


@lru_cache(maxsize=None)
def transition_table(n):
    """The e -> m basis change in weight n, as sparse rows.

    T[nu][lambda], the coefficient of m_lambda in e_{nu'}, counts the 0-1
    matrices with row sums nu' and column sums lambda (Macdonald, I.6,
    (6.6)). Each e_pi, pi a partition of n with decreasing parts, is its
    prefix's product times e_{pi_last}, by _times_e. The matrix is
    unitriangular in dominance order, so lower unitriangular in
    lexicographic order. Returns {xi: (omega, row)} with the rows in
    lexicographic order of nu: xi and omega are the omega indices of nu' and
    nu, and e^xi = sum row[omega'] * m_{lambda(omega')}, in lexicographic
    order of lambda. row[omega] = 1 is the diagonal, and every other omega'
    in row is the diagonal of an earlier row.
    """
    e = {}

    def walk(prefix, left, poly):
        if not left:
            e[prefix] = poly
        for r in range(min(left, prefix[-1] if prefix else left), 0, -1):
            nxt = {}
            for mu, c in poly.items():
                for rho, ways in _times_e(mu, r).items():
                    nxt[rho] = nxt.get(rho, 0) + c * ways
            walk(prefix + (r,), left - r, nxt)

    walk((), n, {(): 1})
    table = {}
    for nu in sorted(partitions(n)):
        row = e[conjugate_partition(nu)]
        if row.get(nu) != 1 or max(row) != nu:
            raise AssertionError("e to m transition matrix is not unitriangular")
        table[partition_to_omega(conjugate_partition(nu))] = (
            partition_to_omega(nu), {partition_to_omega(lam): row[lam] for lam in sorted(row)})
    return table
