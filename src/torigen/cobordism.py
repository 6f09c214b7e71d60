"""Polynomials in the cobordism generators, and the canonical text of every
polynomial.

CobordismPoly is a polynomial in the cobordism generators a_1, a_2, ...:
the class of a space, the coefficient of each sigma monomial in the S^6
blocks of reproduce, and that of each u^a v^b in the formal group law. It holds and
prints them and does no arithmetic: the engines compute on plain dicts (the
fgl module on packed exponents), and the ring operations that the tests
need are their reference's (tests/reference.py). clean collapses an
integral Fraction to int, and render_terms writes an exponent ->
coefficient map in graded lex order, highest first; CobordismPoly and the
weight lines of the residues' pole messages print through it. render_series
writes an exponent -> CobordismPoly map, lowest first: the fgl verb's law.

Coefficients are ints, or Fractions where they are not integral, so a
coefficient that is not an int is a Fraction: testing for int keeps the
fractions module unloaded on a route that makes no Fraction.
"""

from .symmfunc import trim


def clean(c):
    """Collapse integral Fractions to int."""
    if type(c) is not int and c.denominator == 1:
        return c.numerator
    return c


def grlex_key(exp):
    return (sum(exp), exp)


def _fmt_term(exp, c, names):
    factors = []
    for i, e in enumerate(exp):
        if e == 1:
            factors.append(names[i])
        elif e > 1:
            factors.append("%s^%d" % (names[i], e))
    c = clean(c)
    neg = c < 0
    c = -c if neg else c
    if not factors:
        body = str(c)
    elif c == 1:
        body = "*".join(factors)
    else:
        body = str(c) + "*" + "*".join(factors)
    return neg, body


def render_terms(terms, names):
    """Canonical text of an exponent->coefficient map, graded lex descending."""
    if not terms:
        return "0"
    parts = []
    for exp in sorted(terms, key=grlex_key, reverse=True):
        neg, body = _fmt_term(exp, terms[exp], names)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def render_series(terms, names, prefix="a"):
    """Canonical text of an exponent -> CobordismPoly map, graded lex
    ascending: each term "(coefficient)*monomial", a constant term bare."""
    if not terms:
        return "0"
    parts = []
    for exp in sorted(terms, key=grlex_key):
        mono = "*".join(names[i] if d == 1 else "%s^%d" % (names[i], d) for i, d in enumerate(exp) if d)
        ctext = terms[exp].canonical_text(prefix)
        parts.append("(%s)*%s" % (ctext, mono) if mono else ctext)
    return " + ".join(parts)


class CobordismPoly:
    """Integer/rational polynomial in the cobordism generators a_1, a_2, ...,
    built from an {exponent: coefficient} map and compared, read and printed,
    with no arithmetic.

    Keys are exponent tuples with trailing zeros stripped; generator a_i has
    weight i, so the monomial a^omega has weight sum(l * omega_l). A scalar
    compares as a constant polynomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for exp, c in terms.items():
                c = clean(c)
                if c:
                    exp = trim(exp)
                    t[exp] = t.get(exp, 0) + c
                    if t[exp] == 0:
                        del t[exp]
        self.terms = t

    def is_zero(self):
        return not self.terms

    def coeff(self, omega):
        return self.terms.get(trim(omega), 0)

    def is_integral(self):
        return all(isinstance(c, int) for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, CobordismPoly):
            other = CobordismPoly({(): other})
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def canonical_text(self, prefix="a"):
        # the trimmed keys sort as padded ones would: two of one degree
        # differ within the shorter, as neither is a prefix of the other
        top = max((len(e) for e in self.terms), default=0)
        return render_terms(self.terms, ["%s%d" % (prefix, i + 1) for i in range(top)])

    def __repr__(self):
        return "CobordismPoly(%s)" % self.canonical_text()
