"""Dense integer polynomials, the numerators and denominators of WRat:
tuples of Python ints, constant term first, primitive (coefficient gcd 1),
with a nonzero constant term and a positive leading coefficient.  Products
and exact quotients of such polynomials keep this form (Gauss's lemma).

A module apart from series.py, the package's largest: a process importing
the package without a bytecode cache parses each module whole, and the
largest one sets the parser's share of its peak memory.
"""

from math import gcd

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


def _pdiv(a, b):
    """a / b when b divides a exactly."""
    if b == _ONE:
        return a
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        t = a[i + db]
        if t:
            t //= lb
            q[i] = t
            for j in range(db):
                a[i + j] -= t * b[j]
    return tuple(q)


def _int_poly_gcd(a, b):
    """Primitive PRS gcd of two polynomials of the form above; ``_ONE`` when
    they are coprime."""
    if a == b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pseudo_rem(a, b)
        if not r:
            return tuple(b) if b[-1] > 0 else tuple(-v for v in b)
        g = gcd(*r)
        # lists, not tuples: freed short tuples stay in the interpreter's
        # tuple free lists, which raises peak memory
        a, b = b, [v // g for v in r]
    return _ONE


def _pseudo_rem(a, b):
    """Trimmed remainder of c * a by b for some nonzero integer c; the
    top coefficient is eliminated only where it is nonzero."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    low = b[:-1]
    for top in range(len(a) - 1, db - 1, -1):
        la = a[top]
        if la:
            if lb != 1:
                for i in range(top):
                    a[i] *= lb
            for i, x in enumerate(low, top - db):
                a[i] -= la * x
    n = db
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


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
