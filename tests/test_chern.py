"""s_omega <-> Chern number dictionary."""

import random
from fractions import Fraction

import pytest

from torigen.chern import NonIntegerSolution, chern_to_s, s_to_chern
from torigen.symmfunc import omegas_of_weight, transition_table

from reference import RingPoly


def test_chern_to_s_known_rows():
    # on the symbolic table {xi: c^xi}, s_omega is the expansion of m_omega in
    # the products e^xi, with c^xi standing for e_1^xi_1 ... e_n^xi_n
    s = chern_to_s({xi: RingPoly({xi: 1}) for xi in omegas_of_weight(4)}, 4)
    # m_(2,1,1) = e1 e3 - 4 e4
    assert s[(2, 1)] == RingPoly({(1, 0, 1): 1, (0, 0, 0, 1): -4})
    # m_(3,1) = e1^2 e2 - 2 e2^2 - e1 e3 + 4 e4
    assert s[(1, 0, 1)] == RingPoly({(2, 1): 1, (0, 2): -2, (1, 0, 1): -1, (0, 0, 0, 1): 4})
    # m_(1,1,1,1) = e4
    assert s[(4,)] == RingPoly({(0, 0, 0, 1): 1})


def test_transition_table_is_unitriangular():
    # each row of T has coefficient 1 on its diagonal omega and names no
    # omega that a later row solves, so T is unimodular and an integer
    # Chern table has integer s-numbers
    rng = random.Random(20261018)
    for n in range(1, 11):
        index = omegas_of_weight(n)
        table = transition_table(n)
        assert sorted(table) == index
        solved = set()
        for om, row in table.values():
            assert row[om] == 1
            assert set(row) - {om} <= solved
            solved.add(om)
        assert sorted(solved) == index
        s = chern_to_s({xi: rng.randint(-50, 50) for xi in index}, n)
        assert all(isinstance(v, int) for v in s.values())


def test_chern_to_s_weight_twelve():
    s = chern_to_s({xi: RingPoly({xi: 1}) for xi in omegas_of_weight(12)}, 12)
    assert len(s) == 77
    # m_(1^12) = e_12
    assert s[(12,)] == RingPoly({(0,) * 11 + (1,): 1})
    # m_(12) = p_12, whose e_12 coefficient is (-1)^11 * 12 by Newton's identities
    assert s[(0,) * 11 + (1,)].coeff((0,) * 11 + (1,)) == -12


def test_six_sphere_tangent_numbers():
    # c = (c3, c1c2, c1^3) = (2, 0, 0)
    s = chern_to_s({(0, 0, 1): 2, (1, 1): 0, (3,): 0}, 3)
    assert s == {(0, 0, 1): 6, (1, 1): -6, (3,): 2}
    back = s_to_chern(s, 3)
    assert back == {(0, 0, 1): 2, (1, 1): 0, (3,): 0}


def test_round_trips_random_tables():
    rng = random.Random(20260823)
    for n in range(1, 13):
        index = omegas_of_weight(n)
        for _ in range(4):
            c = {xi: rng.randint(-50, 50) for xi in index}
            assert s_to_chern(chern_to_s(c, n), n) == c
            s = {om: rng.randint(-50, 50) for om in index}
            assert chern_to_s(s_to_chern(s, n), n) == s


def test_missing_keys_rejected():
    with pytest.raises(KeyError):
        chern_to_s({(2,): 1}, 2)
    with pytest.raises(KeyError):
        s_to_chern({(2,): 1}, 2)


def test_non_integer_solution_rejected():
    # T for n=1 is the identity on one key; a fraction cannot appear there,
    # so drive the failure through n=2 with a half-integer input
    with pytest.raises(NonIntegerSolution):
        s_to_chern({(2,): Fraction(1, 2), (0, 1): 0}, 2)
