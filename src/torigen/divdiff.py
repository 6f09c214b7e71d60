"""Classes of type-A block quotients by the operator L, with no fixed-point data.

Everything here works directly on the polynomial ring, so the classes of
U(n)/U(k_1)x...xU(k_m) computed below, flag manifolds and Grassmannians
among them, form an independent cross-check against the localization route
in the genus module.

The operator L sends p to (1/Delta_n) sum_sigma sign(sigma) sigma(p); on
monomials x^(lambda+delta) it produces the Schur polynomial Sh_lambda. For p
of degree C(n, 2), antisym(p) is alternating of the degree of Delta_n, so it
is c * Delta_n, and c = L(p) is the x^delta coefficient of antisym(p): the
signed sum sum_sigma sign(sigma) [x^sigma(delta)] p (_delta_orbit).

One block read (_block_read) answers every question here. Take the sizes
(k_1, ..., k_m) of the blocks of variables, C = prod f(x_i - x_j) over the
pairs i < j in different blocks, and delta' = (delta_k_1, ..., delta_k_m):

- block_class: [U(n)/U(k_1)x...xU(k_m)] = (1/k_1!...k_m!) L(Delta' C), with
  Delta' = Delta_k_1 ... Delta_k_m the product of the blocks' Vandermondes,
  = sum_rho sign(rho) [x^(rho(delta) - delta')] C.
  Delta' = sum_tau sign(tau) x^tau(delta'), tau in S_k_1 x ... x S_k_m, and C
  is symmetric under that group, so the x^rho(delta) coefficient of Delta' C
  is sum_tau sign(tau) [x^(tau^-1 rho(delta) - delta')] C; with
  rho' = tau^-1 rho, each of the k_1!...k_m! values of tau gives the same sum
  over rho', which cancels the division. The same symmetry lets each read be
  sorted within the blocks.
- block_polynomial: the x^xi coefficient of Delta' C, the signed sum of the
  reads xi - e over the monomials x^e of Delta'.

Sizes (1, ..., 1) give the flag manifold U(n)/T^n, with C = prod_{i<j}
f(x_i - x_j) and delta' = 0: flag_class reads C on the delta orbit, and its
thm8 route takes the odd part of f at the (1,2) and (n-1,n) factors;
flag_P_polynomials is block_polynomial there. Sizes (q, l) give the
Grassmannian G_{q+l,l}: grassmann_class and grassmann_Q_polynomials. Every
other composition of n is a second route to its space, which the tests
compare with localization. Each read is a signed sum of coefficients of the
weight-d a^omega blocks of a product prod f(x_a - x_b) over a list of pairs
(a, b), and one reader, _read, computes it.

The reader's layout (_packed_product). A block is held as two nonnegative
ints P - N, Kronecker-packed over the box e_i <= cap_i, cap the largest entry
read in each coordinate: x^e has the W-bit slot of index sum_i e_i * stride_i,
with radix cap_i + 2, so each field has a guard value cap_i + 1. x_n is
implicit: a block is homogeneous, so its exponent is the block's weight less
the others. A factor x_a - x_b maps (P, N) to (P x_a + N x_b, N x_a + P x_b),
each x_i a shift by W * stride_i bits (x_n by none), and one AND with the
mask of the box clears the slots that reached a guard value. The cost follows
the size of the box, not the number of terms.

Exactness. Every monomial of every factor has nonnegative exponents, so a
term outside the box has no descendant inside it, and dropping it is exact. A
shift raises one field by 1, so a field leaves the box only onto its guard
value, which cannot carry into the next field before the AND clears it. No
slot overflows into the next: P + N of a block of weight d holds at most the
L1 mass of the products without cancellation, sum over the factor degrees
k_j of prod_j ||w_j||_1^k_j = [t^d] prod_j 1/(1 - 2t), and 2^W exceeds it for
every d <= order.

The flag and grassmann verbs live here.
"""

from functools import lru_cache
from itertools import combinations, permutations
from math import comb

from .cobordism import CobordismPoly
from .symmfunc import omegas_of_weight


def _delta(n):
    return tuple(range(n - 1, -1, -1))


def _sign(perm):
    """The sign of a permutation of range(n), (-1)^(n - its cycles)."""
    seen = [False] * len(perm)
    parity = len(perm)
    for start in range(len(perm)):
        if not seen[start]:
            parity -= 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return -1 if parity % 2 else 1


def _delta_orbit(n):
    """(sigma(delta), sign(sigma)) for every permutation sigma of n: L of a
    polynomial of degree C(n, 2) reads these, and Delta_n is
    sum sign(sigma) x^sigma(delta). sigma(delta) = e is a permutation of
    range(n) with e o sigma = delta, so sign(sigma) = sign(e) * sign(delta)."""
    sign = _sign(_delta(n))
    return [(e, sign * _sign(e)) for e in permutations(range(n))]


@lru_cache(maxsize=None)
def _packed_product(n, pairs, order, odd, cap):
    """(W, shifts, {omega: (P, N)}): the weight-order a^omega blocks of
    prod_j f(x_a - x_b), (a, b) = pairs[j], over the box e_i <= cap[i] of the
    first n - 1 variables, laid out as the module docstring says; shifts[i]
    is the bit shift of x_i. A factor whose index is in odd uses the odd part
    a_1 t + a_3 t^3 + ... of f.

    One pass over the factors updates the blocks in place: factor j adds
    (x_a - x_b)^k times block omega into block omega + e_k, heaviest block
    first, so that each is read before this factor adds into it (the 0/1
    knapsack order). A factor in odd has no constant term, so it deletes
    each block once read; the last factor writes only blocks of weight
    order, and deletes the lighter ones."""
    m = len(pairs)
    width = (comb(order + m - 1, order) << order).bit_length()
    shifts, stride, mask = [], width, (1 << width) - 1
    for c in cap:
        shifts.append(stride)
        mask = sum(mask << stride * v for v in range(c + 1))
        stride *= c + 2
    shifts.append(0)
    blocks = {(): (0, 1, 0)}
    for j, (a, b) in enumerate(pairs):
        sa, sb = shifts[a], shifts[b]
        is_odd = j in odd
        least = order if j == m - 1 else 0
        for om in sorted(blocks, key=lambda om: blocks[om][0], reverse=True):
            wt, p, q = blocks[om]
            if is_odd or wt < least:
                del blocks[om]
            for k in range(1, order - wt + 1):
                p, q = ((p << sa) + (q << sb)) & mask, ((q << sa) + (p << sb)) & mask
                if not (p or q):
                    break
                if is_odd and k % 2 == 0 or wt + k < least:
                    continue
                key = list(om) + [0] * (k - len(om))
                key[k - 1] += 1
                key = tuple(key)
                if key in blocks:
                    _, p0, q0 = blocks[key]
                    blocks[key] = (wt + k, p0 + p, q0 + q)
                else:
                    blocks[key] = (wt + k, p, q)
    return width, shifts, {om: (p, q) for om, (wt, p, q) in blocks.items() if wt == order}


def _read(n, pairs, order, reads, odd=()):
    """sum_r s_r [x^r] of the weight-order a^omega blocks of prod_j f(x_a - x_b),
    (a, b) = pairs[j], as one CobordismPoly; reads lists (r, s_r), and a
    factor whose index is in odd uses the odd part of f. A block of weight
    order is homogeneous of that degree, so a read of another degree, or
    with a negative entry, is 0. The box is the largest r_i of the reads in
    each of the first n - 1 coordinates."""
    reads = [(r, s) for r, s in reads if min(r) >= 0 and sum(r) == order]
    if not reads:
        return CobordismPoly()
    box = tuple(max(col) for col in list(zip(*(r for r, _ in reads)))[:n - 1])
    width, shifts, blocks = _packed_product(n, tuple(pairs), order, tuple(odd), box)
    signs = {}
    for r, s in reads:
        o = sum(e * sh for e, sh in zip(r, shifts))
        signs[o] = signs.get(o, 0) + s
    # (first byte, end byte, bit offset, sign) of each slot read
    at = [(o >> 3, (o + width >> 3) + 1, o & 7, s) for o, s in signs.items() if s]
    slot = (1 << width) - 1

    def value(v):
        data = v.to_bytes((v.bit_length() + 7) // 8, "little")
        return sum(s * (int.from_bytes(data[lo:hi], "little") >> bit & slot) for lo, hi, bit, s in at)

    return CobordismPoly({om: value(p) - value(q) for om, (p, q) in blocks.items()})


def _block_read(sizes, order, reads, odd=()):
    """_read of C = prod f(x_i - x_j) over the pairs i < j in different blocks
    of sizes, each read sorted within the blocks, which C's symmetry allows.
    A pair in odd takes the odd part of f at its factor, as thm8 does on
    blocks of size 1, where the sort is the identity."""
    if len(sizes) < 2 or min(sizes) < 1:
        raise ValueError("need two or more blocks, each of size >= 1, got %s" % (tuple(sizes),))
    block = [b for b, k in enumerate(sizes) for _ in range(k)]
    pairs = [(i, j) for i, j in combinations(range(len(block)), 2) if block[i] != block[j]]
    reads = [(tuple(e for _, e in sorted(zip(block, r))), s) for r, s in reads]
    return _read(len(block), pairs, order, reads, [pairs.index(p) for p in odd])


def block_class(sizes, odd=()):
    """[U(n)/U(k_1)x...xU(k_m)], sizes = (k_1, ..., k_m), m >= 2:
    sum_rho sign(rho) [x^(rho(delta) - delta')] C (module docstring). A
    single block is a point, which has no pairs to read."""
    shift = [d for k in sizes for d in _delta(k)]
    reads = [([x - y for x, y in zip(e, shift)], s) for e, s in _delta_orbit(len(shift))]
    return _block_read(sizes, comb(len(shift), 2) - sum(shift), reads, odd)


def block_polynomial(sizes, xi):
    """The x^xi coefficient of Delta_{k_1} ... Delta_{k_m} C: the signed sum
    of the reads xi - e over the monomials x^e of the product of the
    Vandermondes, each the delta orbit of its block."""
    xi = tuple(xi)
    if len(xi) != sum(sizes):
        raise ValueError("exponent length %d does not match n=%d" % (len(xi), sum(sizes)))
    base = [((), 1)]
    for k in sizes:
        base = [(e + f, s * t) for e, s in base for f, t in _delta_orbit(k)]
    reads = [([x - y for x, y in zip(xi, e)], s) for e, s in base]
    return _block_read(sizes, sum(xi) - sum(comb(k, 2) for k in sizes), reads)


def flag_P_polynomials(n, xi):
    """P_xi for the flag manifold: the x^xi coefficient of prod f(x_i - x_j)."""
    return block_polynomial((1,) * n, xi)


def flag_class(n, method="corL"):
    """[U(n)/T^n], the block class of sizes (1, ..., 1), by one of three
    equivalent Schubert-calculus routes.

    corL reads the P polynomials on the orbit of delta, tchi reads the
    permuted products at x^delta, thm8 (n >= 4 only) replaces the (1,2) and
    (n-1,n) factors by the odd part of f and takes L of the top blocks.
    corL and tchi are one read of one product p = prod f(x_i - x_j):
    P_sigma(delta) is the x^sigma(delta) coefficient of p, which is also the
    coefficient of the permuted product sigma^-1(p) at x^delta, and
    sigma^-1 has the sign of sigma.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    odd = {"corL": (), "tchi": (), "thm8": ((0, 1), (n - 2, n - 1))}.get(method)
    if odd is None:
        raise ValueError("unknown method %r" % (method,))
    if odd and n < 4:
        raise ValueError("thm8 route needs n >= 4")
    return block_class((1,) * n, odd)


def grassmann_Q_polynomials(q, l, xi):
    """Q_{(q+l,l)xi}: block_polynomial of sizes (q, l)."""
    return block_polynomial((q, l), xi)


def grassmann_class(q, l):
    """[G_{q+l,l}]: block_class of sizes (q, l)."""
    if q < 1 or l < 1:
        raise ValueError("need q, l >= 1")
    return block_class((q, l))


def flag_vanishing_checks(n):
    """Check the structural vanishing and parity statements for [U(n)/T^n].

    Covers: the value of s_m (2 for n=2, -6 for n=3, 0 for n > 3); s_omega = 0
    whenever omega meets a generator index above 2n-3; the inequality-based
    vanishing statements (sum q_p < l(2l-1), faithfully enumerated though they
    are empty for n <= 5); the all-even-Chern-numbers statement; and, for
    n = 4q or 4q+1, vanishing of every s_omega supported on even indices.
    """
    if not 2 <= n <= 5:
        raise ValueError("checks are sized for 2 <= n <= 5")
    from .chern import s_to_chern

    cls = flag_class(n)
    m = n * (n - 1) // 2
    s = {om: cls.coeff(om) for om in omegas_of_weight(m)}

    sm_value = s[(0,) * (m - 1) + (1,)]
    sm_expected = {2: 2, 3: -6}.get(n, 0)

    cor8 = [om for om in s if any(om[k] for k in range(2 * n - 3, len(om)))]

    inequality = []
    for om in s:
        ks = [k + 1 for k, mult in enumerate(om) if mult]
        if any(k > 2 * n - 3 for k in ks):
            continue
        ll = len(ks)
        if n >= 2 * ll and sum(2 * (n - 1) - k for k in ks) < ll * (2 * ll - 1):
            inequality.append(om)

    odd_zero_applies = n % 4 in (0, 1)
    odd_zero = [om for om in s if odd_zero_applies and not any(om[::2])]

    chern = s_to_chern(s, m)

    report = {
        "n": n,
        "m": m,
        "s_m": {"value": sm_value, "expected": sm_expected, "ok": sm_value == sm_expected},
        "cor8": {"count": len(cor8), "ok": all(s[om] == 0 for om in cor8)},
        "inequality": {"count": len(inequality), "ok": all(s[om] == 0 for om in inequality)},
        "odd_zero": {
            "applicable": odd_zero_applies,
            "count": len(odd_zero),
            "ok": all(s[om] == 0 for om in odd_zero),
        },
        "even_chern": {"ok": all(v % 2 == 0 for v in chern.values())},
    }
    report["ok"] = all(part["ok"] for part in report.values() if isinstance(part, dict))
    return report


# flag --n 6 takes 3.5-5.5 s on a 2-vCPU VM and peaks at about 118 MB (108 MB
# by thm8): 684 blocks, two ints of up to 76 kB each (14,406 slots of 42
# bits). At n = 7 the box has 229,376 slots of 59 bits, and the 3,506 blocks
# of weight up to 21 would take up to 12 GB.
FLAG_N_LIMIT = 6


def cmd_flag(args, spec):
    if args.n > FLAG_N_LIMIT:
        raise ValueError("--n must be at most %d, got %d" % (FLAG_N_LIMIT, args.n))
    text = flag_class(args.n, args.method).canonical_text()
    return text, {"n": args.n, "method": args.method, "class": text}, 0


# grassmann_class (3,3) takes 0.07 s on a 2-vCPU VM, (1,6) 0.05 s and (2,4)
# 0.03 s, each under 17 MB. Past the limits the (q+l)! reads of the delta orbit
# cost the most on a long side: (1,8) takes 3.9 s and 151 MB, (1,9) 71 s and
# 1.5 GB. The product grows with q*l: (3,4) takes 3.9 s and 146 MB, and at
# (4,4) the 915 blocks of weight up to 16, two ints of up to 5 MB each, would
# take up to 9 GB. So both q*l and the sides are bounded. These values decide
# which inputs exit 2; (2,5) and (1,7), outside them, would take about 0.4 s
# and 40 MB.
GRASSMANN_QL_LIMIT = 9
GRASSMANN_SIDE_LIMIT = 6


def cmd_grassmann(args, spec):
    if args.q * args.l > GRASSMANN_QL_LIMIT:
        raise ValueError("--q times --l must be at most %d, got %d" % (GRASSMANN_QL_LIMIT, args.q * args.l))
    if max(args.q, args.l) > GRASSMANN_SIDE_LIMIT:
        raise ValueError("--q and --l must be at most %d, got %d"
                         % (GRASSMANN_SIDE_LIMIT, max(args.q, args.l)))
    text = grassmann_class(args.q, args.l).canonical_text()
    return text, {"q": args.q, "l": args.l, "class": text}, 0
