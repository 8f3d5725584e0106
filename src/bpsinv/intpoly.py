"""Dense integer polynomials, the numerators and denominators of WRat:
tuples of Python ints, constant term first, primitive (coefficient gcd 1),
with a nonzero constant term and a positive leading coefficient.  Products
and exact quotients of such polynomials keep this form (Gauss's lemma).

The lifted q-series product runs here too: ``_lift`` brings the
coefficients of one series over a single denominator, ``_convolve`` sums the
numerator products per output exponent with no gcd, and ``_canonical``
reduces each sum back to the parts of a canonical WRat.

A module apart from series.py, the package's largest: a process importing
the package without a bytecode cache parses each module whole, and the
largest one sets the parser's share of its peak memory.
"""

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
    positive leading coefficient, so a quotient in Q[v] is integral)."""
    db, lb = len(b) - 1, b[-1]
    if db >= len(a):
        return None
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
    if m == 1:
        return p
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
    given as the (index, value) pairs of its nonzero entries."""
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
        lifted.append((E, [(i, k * x) for i, x in
                           enumerate(_pmul(n, f), sE - s) if x]))
    lifted.sort()
    return Q, s, D, lifted


def _convolve(a, b, cap):
    """{E: N} with N the integer list of the sum of N_a N_b over the pairs of
    lifted terms with E_a + E_b = E below the int cap (None: no cap); no gcd
    is taken."""
    size = max(t[-1][0] for _, t in a) + max(t[-1][0] for _, t in b) + 1
    acc = {}
    for Ea, na in a:
        for Eb, nb in b:
            E = Ea + Eb
            if cap is not None and E >= cap:
                break
            out = acc.get(E)
            if out is None:
                out = acc[E] = [0] * size
            for i, x in na:
                for j, y in nb:
                    out[i + j] += x * y
    return acc


def _canonical(N, Q, D):
    """Canonical parts (p, q, k, n, d) of v^k (p/q) n/d = N(v) / (Q D(v)) for
    an integer list N and a denominator D of the form above, or None when N
    is zero."""
    hi = len(N)
    while hi and not N[hi - 1]:
        hi -= 1
    if not hi:
        return None
    lo = 0
    while not N[lo]:
        lo += 1
    c, n = _primitive(N[lo:hi])
    _, n, d = _int_poly_gcd(n, D)
    g = gcd(c, Q)
    return c // g, Q // g, lo, n, d
