"""Dense integer polynomials, the numerators and denominators of WRat:
tuples of Python ints, constant term first, primitive (coefficient gcd 1),
with a nonzero constant term and a positive leading coefficient.  Products
and exact quotients of such polynomials keep this form (Gauss's lemma).

The lifted form of a q-series lives here too: every coefficient as
v^s N_E(v) / (Q D(v)) over one int Q > 0, one v-power s and one denominator
D, with N_E an integer polynomial kept as the tuples (indices, values) of
its nonzero entries.  ``_lift`` builds it from canonical coefficients,
``_from_int_polys`` from integer polynomials over one Q, ``_inverse_ints``
from the inversion recurrence run on integer polynomials, ``_product`` and
``_sum`` combine two of them with integer arithmetic only (the sum takes
one gcd of the two Ds), and ``_canonical`` reduces one N_E back to the
parts of a canonical WRat.  The same recurrence on WRat coefficients,
``_inverse_terms``, serves the inverses it cannot.

A module apart from series.py, the package's largest: a process importing
the package without a bytecode cache parses each module whole, and the
largest one sets the parser's share of its peak memory.
"""

from itertools import compress
from math import gcd, lcm

_ONE = (1,)


def _primitive(p):
    """(content, primitive tuple) of a nonzero integer list whose first and
    last entries are nonzero; the content carries the leading sign."""
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    if g == 1:
        return 1, tuple(p)
    return g, tuple(x // g for x in p)


def _pmul(a, b):
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    out = [0] * (len(a) + len(b) - 1)
    b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b:
                out[i + j] += x * y
    return tuple(out)


def _int_poly_gcd(a, b):
    """(g, a/g, b/g), g the gcd of two polynomials of the form above: the
    heuristic gcd of Char, Geddes and Gonnet.  g is the primitive part of
    gcd(a(x), b(x)) read in base x (digits in (-x/2, x/2]), kept if it
    divides a and b; for x >= 2 min(|a|, |b|) + 2 (max norms) it is then
    the gcd (Cauchy's root bound).  A failing x shares a factor of the
    cofactors' resultant, so a growing x ends the loop; x a multiple of
    2*3*5*7*11*13 avoids the common small-prime failures."""
    if a == b:
        return a, _ONE, _ONE
    if len(a) < len(b):
        g, qb, qa = _int_poly_gcd(b, a)
        return g, qa, qb
    if len(b) == 1:
        return _ONE, a, b
    x = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    while True:
        x = -(-x // 30030) * 30030
        G = gcd(_peval(a, x), _peval(b, x))
        g, half = [], x // 2
        while G:
            G, r = divmod(G, x)
            if r > half:
                r -= x
                G += 1
            g.append(r)
        if len(g) == 1:
            return _ONE, a, b
        g = _primitive(g)[1]
        # g | b with b's length means g == b
        qb = _ONE if g == b else _quotient(b, g)
        if qb is not None:
            qa = _quotient(a, g)
            if qa is not None:
                return g, qa, qb
        x = x * 73794 // 27011  # the published step, about 1 + sqrt(3)


def _peval(p, x):
    out = 0
    for c in reversed(p):
        out = out * x + c
    return out


def _quotient(a, b):
    """a / b in Z[v], or None when b does not divide a (b primitive with a
    positive leading coefficient, so a quotient in Q[v] is integral; a
    nonzero, so an a shorter than b is all remainder)."""
    db, lb = len(b) - 1, b[-1]
    a = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        t = a[i + db]
        if t:
            t, r = divmod(t, lb)
            if r:
                return None
            q[i] = t
            for j in range(db):
                a[i + j] -= t * b[j]
    return None if any(a[:db]) else tuple(q)


def _spread(p, m):
    """p(v) -> p(v^m)."""
    out = [0] * ((len(p) - 1) * m + 1)
    out[::m] = p
    return tuple(out)


def _twist(p, c):
    """p(v) -> p(i v) on even support (v^e -> (-1)^(e/2) v^e), renormalised
    to a positive leading coefficient; the sign goes into the factor c."""
    p = tuple(-x if e % 4 else x for e, x in enumerate(p))
    if p[-1] < 0:
        return tuple(-x for x in p), -c
    return p, c


def _lift(coeffs):
    """One denominator for the coefficients of a series, given as canonical
    parts (E, p, q, s, n, d) of (p/q) v^s n/d at q-exponent E.  Returns
    (Q, s, D, lifted): Q is the lcm of the q, s the least v-power, D the lcm
    of the d, and lifted lists (E, N_E) by increasing E, where each
    coefficient is v^s N_E(v) / (Q D(v)) and N_E is an integer polynomial
    given as the tuples (indices, values) of its nonzero entries."""
    Q, s, D = 1, min(c[3] for c in coeffs), _ONE
    for _, _, q, _, _, d in coeffs:
        Q = lcm(Q, q)
        if d != D and d != _ONE:
            D = _pmul(D, _int_poly_gcd(D, d)[2])
    cofactor = {D: _ONE, _ONE: D}
    lifted = []
    for E, p, q, sE, n, d in coeffs:
        f = cofactor.get(d)
        if f is None:
            f = cofactor[d] = _quotient(D, d)
        k = p * (Q // q)
        lifted.append((E, _nonzero([k * x for x in _pmul(n, f)], sE - s)))
    lifted.sort()
    return Q, s, D, lifted


def _from_int_polys(polys, Q):
    """The lifted form (Q, s, _ONE, lifted) of the series whose coefficient
    at q-exponent E is sum c v^e / Q, given as {E: {e: c}}; zero entries,
    and polynomials with no other, are dropped."""
    polys = {E: {e: c for e, c in poly.items() if c}
             for E, poly in polys.items()}
    s = min((e for poly in polys.values() for e in poly), default=0)
    lifted = []
    for E in sorted(polys):
        idx = sorted(polys[E])
        if idx:
            lifted.append((E, (tuple(e - s for e in idx),
                               tuple(polys[E][e] for e in idx))))
    return Q, s, _ONE, lifted


def _gather(polys, E, monomials):
    """Add c w^X for each (X, c) of monomials to the q^(E/24) polynomial of
    polys, {E: {v-exponent: int}}."""
    poly = polys.setdefault(E, {})
    for X, c in monomials:
        poly[2 * X] = poly.get(2 * X, 0) + c


def _inverse_terms(nu, P, one, zero):
    """b = 1/(1 + u) below the int exponent P, term by term in the ring of
    one and zero (WRat), for nu the pairs (f, -u_f) by increasing f > 0."""
    b = {0: one} if P > 0 else {}
    for e in range(1, P):
        acc = zero
        for f, c in nu:
            if f > e:
                break
            be = b.get(e - f)
            if be is not None:
                acc = acc + c * be
        if acc:
            b[e] = acc
    return b


def _inverse_ints(nu, P, E0, c0):
    """The lifted form of c0 q^(-E0) b, b = 1/(1 + u) for e < P: b_0 = 1 and
    b_e = sum_f -u_f b_(e-f), for nu the triples (f, p, s, n) of
    -u_f = p v^s n(v) in Z[v, 1/v] by increasing f, and c0 = (p, q, s, n, d)
    canonical WRat parts.  Each b_e is kept as the (v-exponents, values) of
    its nonzero terms, so no gcd is taken; its numerator is p n b_e."""
    nu = [(f, _nonzero([p * x for x in n], s)) for f, p, s, n in nu]
    b = {0: ((0,), (1,))} if P > 0 else {}
    for e in range(1, P):
        parts = [(U, b[e - f]) for f, U in nu if f <= e and e - f in b]
        if parts:
            lo = min(U[0][0] + B[0][0] for U, B in parts)
            out = [0] * (max(U[0][-1] + B[0][-1] for U, B in parts) - lo + 1)
            for (iu, vu), (ib, vb) in parts:
                for i, x in zip(iu, vu):
                    i -= lo
                    for j, y in zip(ib, vb):
                        out[i + j] += x * y
            B = _nonzero(out, lo)
            if B[0]:
                b[e] = B
    p, q, s, n, d = c0
    lo = min((B[0][0] for B in b.values()), default=0)
    f = [(j - lo, p * y) for j, y in enumerate(n) if y]
    return q, s + lo, d, [(e - E0, _muladd(None, B, f)) for e, B in b.items()]


def _product(a, b, cap):
    """The lifted form of the product of two lifted forms below the int cap
    (None: no cap), over Q_a Q_b and D_a D_b: the products N_a N_b are
    summed per E = E_a + E_b, and no gcd is taken."""
    Qa, sa, Da, ta = a
    Qb, sb, Db, tb = b
    size = sum(max(N[0][-1] for _, N in t) for t in (ta, tb)) + 1
    # (index, value) pairs for the loops, built once per operand term
    tb = [(Eb, list(zip(*nb))) for Eb, nb in tb]
    acc = {}
    for Ea, na in ta:
        na = list(zip(*na))
        for Eb, nb in tb:
            E = Ea + Eb
            if cap is not None and E >= cap:
                break
            out = acc.get(E)
            if out is None:
                out = acc[E] = [0] * size
            for i, x in na:
                for j, y in nb:
                    out[i + j] += x * y
    terms = [(E, _nonzero(acc[E])) for E in sorted(acc)]
    return Qa * Qb, sa + sb, _pmul(Da, Db), [t for t in terms if t[1][0]]


def _sum(a, b, cap):
    """The lifted form of the sum of two lifted forms below the int cap (None:
    no cap), over Q = lcm(Q_a, Q_b) and D = lcm(D_a, D_b): one gcd.  A term
    of one operand only is rescaled, not rebuilt."""
    Qa, sa, Da, ta = a
    Qb, sb, Db, tb = b
    Q, s = lcm(Qa, Qb), min(sa, sb)
    _, ea, eb = _int_poly_gcd(Da, Db)
    # D = D_a e_b = D_b e_a: a's numerators take the factor (Q/Q_a) v^(sa-s) e_b
    out = {}
    for Qx, sx, e, terms in ((Qa, sa, eb, ta), (Qb, sb, ea, tb)):
        f = [(j, Q // Qx * y) for j, y in enumerate(e, sx - s) if y]
        for E, N in terms:
            if cap is not None and E >= cap:
                break
            out[E] = _muladd(out.get(E), N, f)
    return (Q, s, _pmul(Da, eb),
            [(E, out[E]) for E in sorted(out) if out[E][0]])


def _muladd(M, N, f):
    """M + N f for polynomials M (None for 0) and N given as (indices,
    values) and f as (index, value) pairs."""
    idx, val = N
    if M is None and len(f) == 1:
        (j, y), = f
        return (idx if j == 0 else tuple(i + j for i in idx),
                val if y == 1 else tuple(x * y for x in val))
    out = [0] * (max(idx[-1] + f[-1][0], -1 if M is None else M[0][-1]) + 1)
    if M is not None:
        for i, x in zip(*M):
            out[i] += x
    for i, x in zip(idx, val):
        for j, y in f:
            out[i + j] += x * y
    return _nonzero(out)


def _nonzero(L, lo=0):
    """(indices, values) of the nonzero entries of an integer list, indices
    counted from lo; compress and filter skip the zeros, most entries,
    without a Python step each."""
    return tuple(compress(range(lo, lo + len(L)), L)), tuple(filter(None, L))


def _canonical(N, Q, D):
    """Canonical parts (p, q, k, n, d) of v^k (p/q) n/d = N(v) / (Q D(v)) for
    a nonzero N given as (indices, values) and a denominator D of the form
    above."""
    idx, val = N
    lo = idx[0]
    dense = [0] * (idx[-1] - lo + 1)
    for i, x in zip(idx, val):
        dense[i - lo] = x
    c, n = _primitive(dense)
    _, n, d = _int_poly_gcd(n, D)
    g = gcd(c, Q)
    return c // g, Q // g, lo, n, d
