"""The coefficient ring and the canonical text of every polynomial.

CobordismPoly is a polynomial in the cobordism generators a_1, a_2, ...:
the class of a space, and the coefficient of each x^e in the blocks and
series of exactalg. clean collapses an integral Fraction to int, and
render_terms writes an exponent -> coefficient map in graded lex order,
highest first; MultiPoly and CobordismPoly print through it.

The certified point route of genus (class, s-numbers, Chern numbers) needs
only this module, not the polynomial kernel in exactalg. Coefficients are
ints, or Fractions where they are not integral, so a coefficient that is
not an int is a Fraction: testing for int keeps the fractions module
unloaded on a route that makes no Fraction.
"""


def clean(c):
    """Collapse integral Fractions to int."""
    if type(c) is not int and c.denominator == 1:
        return c.numerator
    return c


def grlex_key(exp):
    return (sum(exp), exp)


def _fmt_coeff(c):
    c = clean(c)
    if type(c) is not int:
        return "%d/%d" % (c.numerator, c.denominator)
    return str(c)


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
        body = _fmt_coeff(c)
    elif c == 1:
        body = "*".join(factors)
    else:
        body = _fmt_coeff(c) + "*" + "*".join(factors)
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


class CobordismPoly:
    """Integer/rational polynomial in the cobordism generators a_1, a_2, ...

    Keys are exponent tuples with trailing zeros stripped; generator a_i has
    weight i, so the monomial a^omega has weight sum(l * omega_l).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for exp, c in terms.items():
                c = clean(c)
                if c:
                    exp = tuple(exp)
                    while exp and exp[-1] == 0:
                        exp = exp[:-1]
                    t[exp] = t.get(exp, 0) + c
                    if t[exp] == 0:
                        del t[exp]
        self.terms = t

    @classmethod
    def const(cls, c):
        return cls({(): c})

    @classmethod
    def gen(cls, i):
        """The generator a_i, i >= 1."""
        return cls({(0,) * (i - 1) + (1,): 1})

    @classmethod
    def monomial(cls, omega, c=1):
        return cls({tuple(omega): c})

    def is_zero(self):
        return not self.terms

    def coeff(self, omega):
        omega = tuple(omega)
        while omega and omega[-1] == 0:
            omega = omega[:-1]
        return self.terms.get(omega, 0)

    def weights(self):
        return {sum((l + 1) * m for l, m in enumerate(e)) for e in self.terms}

    def is_homogeneous(self, weight=None):
        ws = self.weights()
        if len(ws) > 1:
            return False
        return True if weight is None else (not ws or ws == {weight})

    def is_integral(self):
        return all(isinstance(c, int) for c in self.terms.values())

    def __add__(self, other):
        if not isinstance(other, CobordismPoly):
            other = CobordismPoly.const(other)
        t = dict(self.terms)
        for exp, c in other.terms.items():
            t[exp] = t.get(exp, 0) + c
        return CobordismPoly(t)

    __radd__ = __add__

    def __neg__(self):
        return CobordismPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-(other if isinstance(other, CobordismPoly) else CobordismPoly.const(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CobordismPoly):
            if other == 0:
                return CobordismPoly()
            return CobordismPoly({e: c * other for e, c in self.terms.items()})
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                if len(e1) < len(e2):
                    ea, eb = e2, e1
                else:
                    ea, eb = e1, e2
                e = tuple(a + b for a, b in zip(ea, eb)) + ea[len(eb):]
                t[e] = t.get(e, 0) + c1 * c2
        return CobordismPoly(t)

    __rmul__ = __mul__

    def __truediv__(self, num):
        from fractions import Fraction
        return CobordismPoly({e: Fraction(c) / Fraction(num) for e, c in self.terms.items()})

    def __pow__(self, n):
        result = CobordismPoly.const(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, CobordismPoly):
            other = CobordismPoly.const(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def max_gen(self):
        return max((len(e) for e in self.terms), default=0)

    def canonical_text(self, prefix="a"):
        n = self.max_gen()
        names = ["%s%d" % (prefix, i + 1) for i in range(n)]
        padded = {e + (0,) * (n - len(e)): c for e, c in self.terms.items()}
        return render_terms(padded, names)

    def __repr__(self):
        return "CobordismPoly(%s)" % self.canonical_text()
