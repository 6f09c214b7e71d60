"""Partitions, omega indices and the e -> m transition, against the
polynomial references."""

from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from torigen.chern import chern_to_s, s_to_chern
from torigen.divdiff import _sign
from torigen.symmfunc import (
    conjugate_partition,
    omega_weight,
    omegas_of_weight,
    partition_to_omega,
    partitions,
    transition_table,
    trim,
)

from reference import (
    MultiPoly,
    antisymmetrize,
    elementary,
    elementary_product,
    f_product_sum,
    monomial_sym,
    omega_to_partition,
    omegas_up_to,
    orbit_monomial,
    perm_sign,
    permute,
    vandermonde,
    xvars,
    zero_one_count,
)

# partition counts p(0)..p(8)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_omega_partition_round_trip():
    assert omega_to_partition((2, 0, 1)) == (3, 1, 1)
    assert partition_to_omega((3, 1, 1)) == (2, 0, 1)
    assert trim((1, 0, 0)) == (1,)
    assert omega_weight((2, 0, 1)) == 5
    for w in range(7):
        for om in omegas_of_weight(w):
            assert omega_weight(om) == w
            assert partition_to_omega(omega_to_partition(om)) == om


def test_partition_enumeration_counts():
    for n, count in enumerate(PARTITION_COUNTS):
        assert len(list(partitions(n))) == count
        assert len(omegas_of_weight(n)) == count
    assert omegas_of_weight(0) == [()]
    assert sum(len(omegas_of_weight(w)) for w in range(5)) == len(omegas_up_to(4))


def test_conjugate_partition_involution():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    for n in range(1, 8):
        for lam in partitions(n):
            assert conjugate_partition(conjugate_partition(lam)) == lam


def test_perm_sign_matches_inversions():
    for n in range(1, 5):
        for p in permutations(range(n)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
            # the reference counts inversions; divdiff counts cycles
            assert perm_sign(p) == _sign(p) == (-1) ** inv


def test_monomial_sym_small_cases():
    ar = xvars(3)
    x1, x2, x3 = (MultiPoly.variable(ar, i) for i in range(3))
    assert monomial_sym((), 3, ar) == MultiPoly.const(ar, 1)
    m21 = monomial_sym((2, 1), 3, ar)
    want = (x1 * x1 * (x2 + x3) + x2 * x2 * (x1 + x3) + x3 * x3 * (x1 + x2))
    assert m21 == want
    # m_{(1,1)} has each product once, not twice
    assert monomial_sym((1, 1), 3, ar) == x1 * x2 + x1 * x3 + x2 * x3


def test_elementary_and_newton():
    ar = xvars(3)
    x1, x2, x3 = (MultiPoly.variable(ar, i) for i in range(3))
    assert elementary(2, 3, ar) == x1 * x2 + x1 * x3 + x2 * x3
    assert elementary(0, 3, ar) == MultiPoly.const(ar, 1)
    assert elementary(4, 3, ar).is_zero()
    # m of a one-part partition is the power sum
    assert monomial_sym((3,), 3, ar) == x1 ** 3 + x2 ** 3 + x3 ** 3


def test_vandermonde_and_antisymmetrize():
    ar = xvars(3)
    x1, x2, x3 = (MultiPoly.variable(ar, i) for i in range(3))
    v = vandermonde(ar)
    assert v == (x1 - x2) * (x1 - x3) * (x2 - x3)
    assert antisymmetrize(MultiPoly(ar, {(2, 1, 0): 1})) == v
    assert antisymmetrize(x1 * x2).is_zero()


def test_kernel_of_the_variables():
    # prod_i f(t_i): block omega is m_lambda, lambda with omega_k parts equal to k
    ar = xvars(2, "t")
    table = f_product_sum(ar, [([(1, 0), (0, 1)], MultiPoly.const(ar, 1))], 3)
    for om, block in table.items():
        assert block == monomial_sym(omega_to_partition(om), 2, ar)
    t1, t2 = MultiPoly.variable(ar, 0), MultiPoly.variable(ar, 1)
    assert table[(1,)] == t1 + t2
    assert table[(2,)] == t1 * t2
    assert table[(0, 1)] == t1 * t1 + t2 * t2
    # omega = (1,1): a1*a2 picks t_i * t_j^2 over i != j
    assert table[(1, 1)] == t1 * t2 * t2 + t1 * t1 * t2


def test_chern_to_s_reassembles_monomials():
    # forward substitution on T, fed the e-products themselves, gives back m_lambda
    for w in range(1, 7):
        ar = xvars(w)
        s = chern_to_s({xi: elementary_product(xi, w, ar) for xi in omegas_of_weight(w)}, w)
        for om in omegas_of_weight(w):
            assert s[om] == monomial_sym(omega_to_partition(om), w, ar)


def test_transition_rows_expand_e_products():
    for w in range(1, 7):
        ar = xvars(w)
        for xi, (_, row) in transition_table(w).items():
            acc = MultiPoly(ar)
            for om, c in row.items():
                acc = acc + monomial_sym(omega_to_partition(om), w, ar) * c
            assert acc == elementary_product(xi, w, ar)


def test_transition_rows_count_zero_one_matrices():
    # row nu, in lexicographic order, holds the counts of 0-1 matrices with
    # row sums nu' and column sums lambda, in lexicographic order of lambda
    for n in range(13):
        lams = sorted(partitions(n))
        table = transition_table(n)
        assert list(table) == [partition_to_omega(conjugate_partition(nu)) for nu in lams]
        memo = {}
        for nu in lams:
            om, row = table[partition_to_omega(conjugate_partition(nu))]
            assert om == partition_to_omega(nu)
            counts = [(partition_to_omega(lam), zero_one_count(conjugate_partition(nu), lam, memo)) for lam in lams]
            assert list(row.items()) == [(o, c) for o, c in counts if c]


def test_transition_table_is_symmetric():
    # transposing a 0-1 matrix swaps its row and column sums, so the count
    # for (xi, omega) is the count for (omega, xi)
    for n in range(19):
        table = transition_table(n)
        for a, (_, row) in table.items():
            for b, c in row.items():
                assert table[b][1].get(a, 0) == c


def test_transition_directions_are_inverse():
    for w in range(1, 11):
        oms = omegas_of_weight(w)
        for om in oms:
            unit = {o: int(o == om) for o in oms}
            assert chern_to_s(s_to_chern(unit, w), w) == unit
            assert s_to_chern(chern_to_s(unit, w), w) == unit


# -- light randomized checks --------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_orbit_polynomials_are_symmetric(exps):
    lam = tuple(sorted((e for e in exps if e), reverse=True))
    n = 3
    ar = xvars(n)
    p = monomial_sym(lam, n, ar)
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        assert permute(p, tuple(perm)) == p


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_orbit_monomial_matches_permutation_orbit(exps):
    n = len(exps)
    ar = xvars(n)
    orbit = {tuple(exps[i] for i in perm) for perm in permutations(range(n))}
    assert orbit_monomial(tuple(exps), n, ar) == MultiPoly(ar, {e: 1 for e in orbit})


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6))
def test_omegas_are_distinct(w):
    oms = omegas_of_weight(w)
    assert len(set(oms)) == len(oms)
    assert all(om == trim(om) for om in oms)
