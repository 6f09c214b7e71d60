"""Exact translation between the numbers s_omega and classical Chern numbers.

The dictionary is the integer e -> m transition matrix T: expanding
e_1^{xi_1} ... e_n^{xi_n} in orbit polynomials gives
c^xi = sum_omega T[xi][omega] s_omega. T is lower unitriangular in
lexicographic order (symmfunc.transition_table, one Pieri product
m_mu * e_r at a time), so Chern numbers come from an integer matrix-vector
product and s-numbers from forward substitution on the same rows, in
integers for an integer table.
"""

from .symmfunc import omegas_of_weight, transition_table


class NonIntegerSolution(Exception):
    pass


def chern_to_s(table, n):
    """s_omega from the Chern numbers c^xi, |xi| = n, solving
    c^xi = sum_omega T[xi][omega] s_omega row by row: row xi has the diagonal
    omega with coefficient 1, and every other omega it names was solved by
    an earlier row. The values stay exact, as the table gives them."""
    s = {}
    for xi, (om, row) in transition_table(n).items():
        if xi not in table:
            raise KeyError("Chern table missing partition %s" % (xi,))
        s[om] = table[xi] - sum(c * s[o] for o, c in row.items() if o != om)
    return s


def s_to_chern(s, n):
    """c^xi = sum_omega T[xi][omega] s_omega, T the integer e -> m matrix; an
    integer table or NonIntegerSolution."""
    index = omegas_of_weight(n)
    for om in index:
        if om not in s:
            raise KeyError("s table missing omega %s" % (om,))
    rows = transition_table(n)
    out = {}
    for xi in index:
        v = sum(c * s[om] for om, c in rows[xi][1].items())
        if v.denominator != 1:
            raise NonIntegerSolution("c^%s = %s is not an integer" % (xi, v))
        out[xi] = v.numerator
    return out
