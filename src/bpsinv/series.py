"""Exact series substrate: Laurent polynomials and rational functions in the
refinement variable v (v^2 = w), and sparse truncated q-series over that field.

A rational function is kept as c * v^s * n(v) / d(v): one rational factor c,
a v-power s, and coprime integer polynomials n, d that are primitive, have a
nonzero constant term and a positive leading coefficient.  That form is unique
(Gauss's lemma in the unique factorisation domain Z[v]), so equality and
hashing are structural, and all of the arithmetic runs on Python ints; the
only gcd is the integer primitive-PRS gcd of two polynomials.

Everything here is exact; no floating point enters anywhere.  Values are
immutable after construction and safe to share across threads.
"""

from math import gcd, lcm

from .exactq import qq, qfloor, is_integral

__all__ = ["VPoly", "WRat", "QSeries", "SeriesError", "NonInvertibleError"]


class SeriesError(ValueError):
    pass


class NonInvertibleError(SeriesError):
    pass


# Stored q-exponent denominators must divide this (1/24 from eta, 1/8 from
# theta, 1/3 and 1/4 from the blow-up lattice sums and wall q-shifts).
QEXP_DENOMINATOR_BOUND = 24


def _power(base, n, one):
    """base ** n for an int n >= 0 by binary powering.  The first factor is
    taken as it is rather than multiplied into ``one``, and base is squared
    only while higher bits remain, so x ** 2 is the single product x * x."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return one if out is None else out
        base = base * base


# ---------------------------------------------------------------------------
# Laurent polynomials in v
# ---------------------------------------------------------------------------

class VPoly:
    """Laurent polynomial in v with rational coefficients, v^2 = w.

    Integer powers of w sit on even v-exponents; half-integer powers of w on
    odd ones.  Zero coefficients are never stored.
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = qq(v)
                if v:
                    c[int(e)] = v
        self._c = c
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def term(coeff, vexp=0):
        return VPoly({int(vexp): qq(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def items(self):
        return self._c.items()

    def coeff(self, vexp):
        return self._c.get(int(vexp), qq(0))

    @property
    def min_exp(self):
        return min(self._c)

    @property
    def max_exp(self):
        return max(self._c)

    def is_even_support(self):
        """True iff supported on integer w-powers only."""
        return all(e % 2 == 0 for e in self._c)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        c = dict(self._c)
        for e, v in other._c.items():
            s = c.get(e, 0) + v
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        return VPoly(c)

    def __neg__(self):
        return VPoly({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, VPoly):
            if not self._c or not other._c:
                return VPoly()
            a, b = self._c, other._c
            if len(a) > len(b):
                a, b = b, a
            c = {}
            for ea, va in a.items():
                for eb, vb in b.items():
                    e = ea + eb
                    s = c.get(e, 0) + va * vb
                    if s:
                        c[e] = s
                    else:
                        c.pop(e, None)
            return VPoly(c)
        return self.scale(other)

    def scale(self, k):
        k = qq(k)
        if not k:
            return VPoly()
        return VPoly({e: v * k for e, v in self._c.items()})

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise SeriesError("negative VPoly power; use WRat")
        return _power(self, n, _VP_ONE)

    # -- maps ----------------------------------------------------------------

    def conjugate(self):
        """v -> v^-1 (w -> w^-1)."""
        return VPoly({-e: v for e, v in self._c.items()})

    def eval_w_one(self):
        """Value at w = 1 (v = 1)."""
        return sum(self._c.values(), qq(0))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, VPoly) and self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._c.items())))
        return self._hash

    def __repr__(self):
        if not self._c:
            return "0"
        bits = []
        for e in sorted(self._c):
            v = self._c[e]
            if e == 0:
                bits.append(str(v))
            elif e % 2 == 0:
                bits.append("%s*w^%d" % (v, e // 2))
            else:
                bits.append("%s*w^(%d/2)" % (v, e))
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------
#
# Dense tuples of Python ints, constant term first.  The WRat kernel keeps its
# numerator and denominator in this form: primitive (coefficient gcd 1), with
# a nonzero constant term and a positive leading coefficient.  Products and
# exact quotients of such polynomials are again of this form (Gauss's lemma).

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


def _split(p):
    """(c, s, n) with the nonzero VPoly p = c * v^s * n(v), n in the
    primitive integer form above."""
    lo = p.min_exp
    L = lcm(*(int(x.denominator) for x in p._c.values()))
    ints = [0] * (p.max_exp - lo + 1)
    for e, x in p._c.items():
        ints[e - lo] = int(x.numerator) * (L // int(x.denominator))
    g, n = _primitive(ints)
    return qq(g, L), lo, n


# ---------------------------------------------------------------------------
# Rational functions of v
# ---------------------------------------------------------------------------

_VP_ONE = VPoly({0: 1})


class WRat:
    """Element of the fraction field Q(v), v^2 = w.

    Canonical form: c * v^s * n(v) / d(v) with c a nonzero rational, s an
    integer, and n, d tuples of ints (constant term first) that are each
    primitive, have a nonzero constant term and a positive leading
    coefficient, and are coprime.  Zero is the single value with c = 0,
    s = 0 and n = d = (1,).

    The form is unique: v-powers are units of Z[v, 1/v] and go into s; Z[v]
    is a unique factorisation domain, so after cancelling gcd(n, d) each of
    n and d is fixed up to its content and sign, which go into c.  Equal
    values therefore have equal representations, making hashing and caching
    deterministic.  All arithmetic is on the integer tuples; only c is a
    rational of the exactq backend.

    ``num`` and ``den`` are Laurent-polynomial views built on first use:
    den = d / lc(d), a genuine polynomial with nonzero constant term and
    leading coefficient +1, and num = c / lc(d) * v^s * n, so any v-monomial
    content lives in the numerator.
    """

    __slots__ = ("_c", "_s", "_n", "_d", "_num", "_den", "_hash")

    def __init__(self, num, den=None):
        if den is None:
            den = _VP_ONE
        if den.is_zero():
            raise ZeroDivisionError("WRat with zero denominator")
        if num.is_zero():
            c, s, n, d = qq(0), 0, _ONE, _ONE
        else:
            cn, sn, n = _split(num)
            cd, sd, d = _split(den)
            g = _int_poly_gcd(n, d)
            if len(g) > 1:
                n, d = _pdiv(n, g), _pdiv(d, g)
            c, s = cn / cd, sn - sd
        self._c, self._s, self._n, self._d = c, s, n, d
        self._num = self._den = self._hash = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rational(x):
        x = qq(x)
        if not x:
            return WRAT_ZERO
        return _wrat(x, 0, _ONE, _ONE)

    @staticmethod
    def w_power(j):
        e = qq(2) * qq(j)
        if not is_integral(e):
            raise SeriesError("w-power %s is not a half-integer" % (j,))
        return _wrat(qq(1), int(e), _ONE, _ONE)

    # -- structure -----------------------------------------------------------

    @property
    def num(self):
        if self._num is None:
            k = self._c / self._d[-1]
            self._num = VPoly({self._s + e: k * x
                               for e, x in enumerate(self._n) if x})
        return self._num

    @property
    def den(self):
        if self._den is None:
            lc = self._d[-1]
            self._den = VPoly({e: qq(x, lc)
                               for e, x in enumerate(self._d) if x})
        return self._den

    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def is_polynomial(self):
        return len(self._d) == 1

    def as_vpoly(self):
        if len(self._d) > 1:
            raise SeriesError("WRat is not a Laurent polynomial")
        return self.num

    def is_even_support(self):
        return (self._s % 2 == 0 and not any(self._n[1::2])
                and not any(self._d[1::2]))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if not self._c:
            return other
        if not other._c:
            return self
        a, b = (self, other) if self._s <= other._s else (other, self)
        g = a._d
        if g == b._d:
            ea = eb = _ONE
        else:
            g = _int_poly_gcd(g, b._d)
            ea, eb = _pdiv(a._d, g), _pdiv(b._d, g)
        # a + b = (A n_a e_b + B v^k n_b e_a) / (Q v^(-s_a) g e_a e_b)
        ca, cb = a._c, b._c
        qa, qb = int(ca.denominator), int(cb.denominator)
        Q = lcm(qa, qb)
        A = int(ca.numerator) * (Q // qa)
        B = int(cb.numerator) * (Q // qb)
        ta, tb = _pmul(a._n, eb), _pmul(b._n, ea)
        k = b._s - a._s
        N = [A * x for x in ta]
        top = k + len(tb)
        if top > len(N):
            N.extend([0] * (top - len(N)))
        for i, x in enumerate(tb, k):
            N[i] += B * x
        hi = len(N)
        while hi and not N[hi - 1]:
            hi -= 1
        if not hi:
            return WRAT_ZERO
        lo = 0
        while not N[lo]:
            lo += 1
        cN, n = _primitive(N[lo:hi])
        # n is coprime to e_a and e_b, so only a factor of g can cancel
        h = _int_poly_gcd(n, g)
        if len(h) > 1:
            n, g = _pdiv(n, h), _pdiv(g, h)
        return _wrat(qq(cN, Q), a._s + lo, n, _pmul(_pmul(g, ea), eb))

    __radd__ = __add__

    def __neg__(self):
        if not self._c:
            return self
        return _wrat(-self._c, self._s, self._n, self._d)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if not self._c or not other._c:
            return WRAT_ZERO
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        g = _int_poly_gcd(n1, d2)
        if len(g) > 1:
            n1, d2 = _pdiv(n1, g), _pdiv(d2, g)
        g = _int_poly_gcd(n2, d1)
        if len(g) > 1:
            n2, d1 = _pdiv(n2, g), _pdiv(d1, g)
        return _wrat(self._c * other._c, self._s + other._s,
                     _pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def inverse(self):
        if not self._c:
            raise ZeroDivisionError("inverse of zero WRat")
        return _wrat(1 / self._c, -self._s, self._d, self._n)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, WRAT_ONE)

    def scale(self, k):
        k = qq(k)
        if not k or not self._c:
            return WRAT_ZERO
        return _wrat(self._c * k, self._s, self._n, self._d)

    # -- maps -----------------------------------------------------------------

    def conjugate(self):
        """v -> v^-1 (w -> w^-1)."""
        if not self._c:
            return self
        c, n, d = self._c, self._n[::-1], self._d[::-1]
        if n[-1] < 0:
            n, c = tuple(-x for x in n), -c
        if d[-1] < 0:
            d, c = tuple(-x for x in d), -c
        return _wrat(c, len(self._d) - len(self._n) - self._s, n, d)

    def substitute(self, m, multicover=False):
        """w -> w^m (plain) or w -> -(-w)^m (multicover, integer-w support
        only); m >= 1."""
        m = int(m)
        if m < 1:
            raise SeriesError("substitution requires m >= 1")
        if multicover and not self.is_even_support():
            raise SeriesError("multicover substitution on half-integer w-support")
        if not self._c:
            return self
        c, n, d = self._c, self._n, self._d
        if multicover and m % 2 == 0:
            # w^j -> (-1)^j w^(jm), i.e. v -> i v^m
            if self._s % 4:
                c = -c
            n, c = _twist(n, c)
            d, c = _twist(d, c)
        return _wrat(c, self._s * m, _spread(n, m), _spread(d, m))

    def eval_w_one(self):
        dv = sum(self._d)
        if not dv:
            raise ZeroDivisionError("pole at w = 1")
        return self._c * qq(sum(self._n), dv)

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, WRat):
            try:
                other = _coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        # canonical form makes structural equality sound; cross-multiplication
        # would decide it too but is never needed
        return (self._c == other._c and self._s == other._s
                and self._n == other._n and self._d == other._d)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._c, self._s, self._n, self._d))
        return self._hash

    def __repr__(self):
        if len(self._d) == 1:
            return "(%s)" % (self.num,)
        return "(%s)/(%s)" % (self.num, self.den)


def _wrat(c, s, n, d):
    """A WRat from the parts of its canonical form, taken as given."""
    x = object.__new__(WRat)
    x._c, x._s, x._n, x._d = c, s, n, d
    x._num = x._den = x._hash = None
    return x


def _coerce(x):
    if isinstance(x, WRat):
        return x
    if isinstance(x, VPoly):
        return WRat(x)
    return WRat.from_rational(x)


WRAT_ZERO = _wrat(qq(0), 0, _ONE, _ONE)
WRAT_ONE = _wrat(qq(1), 0, _ONE, _ONE)


# ---------------------------------------------------------------------------
# Sparse truncated q-series
# ---------------------------------------------------------------------------

class QSeries:
    """Sparse series in q with rational exponents and WRat coefficients.

    ``cutoff`` is an exclusive upper bound on stored exponents; ``None`` means
    the series is exact (a finite q-Laurent polynomial).  Arithmetic
    propagates cutoffs pessimistically and never fabricates precision.
    """

    __slots__ = ("terms", "cutoff")

    def __init__(self, terms=None, cutoff=None):
        self.cutoff = None if cutoff is None else qq(cutoff)
        t = {}
        if terms:
            for e, c in terms.items():
                e = qq(e)
                if not isinstance(c, WRat):
                    c = _coerce(c)
                if c.is_zero():
                    continue
                if self.cutoff is not None and e >= self.cutoff:
                    continue
                if QEXP_DENOMINATOR_BOUND % int(e.denominator):
                    raise SeriesError(
                        "q-exponent denominator %s outside tracked bound"
                        % (e.denominator,))
                t[e] = c
        self.terms = t

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def zero(cutoff=None):
        return QSeries({}, cutoff)

    @staticmethod
    def one(cutoff=None):
        return QSeries({qq(0): WRAT_ONE}, cutoff)

    # -- structure ---------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def support(self):
        return sorted(self.terms)

    def coeff(self, e):
        return self.terms.get(qq(e), WRAT_ZERO)

    def leading_exponent(self):
        if not self.terms:
            return self.cutoff
        return min(self.terms)

    def leading_coeff(self):
        return self.terms[min(self.terms)]

    # -- arithmetic ----------------------------------------------------------------

    def _merge_cut(self, other):
        if self.cutoff is None:
            return other.cutoff
        if other.cutoff is None:
            return self.cutoff
        return min(self.cutoff, other.cutoff)

    def __add__(self, other):
        cut = self._merge_cut(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, WRAT_ZERO) + c
            if s.is_zero():
                t.pop(e, None)
            else:
                t[e] = s
        return QSeries(t, cut)

    def __neg__(self):
        return QSeries({e: -c for e, c in self.terms.items()}, self.cutoff)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        cut = self._mul_cut(other)
        if not self.terms or not other.terms:
            return QSeries({}, cut)
        t = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = ea + eb
                if cut is not None and e >= cut:
                    continue
                p = ca * cb
                if p.is_zero():
                    continue
                s = t.get(e, WRAT_ZERO) + p
                if s.is_zero():
                    t.pop(e, None)
                else:
                    t[e] = s
        return QSeries(t, cut)

    def _mul_cut(self, other):
        # a factor that is exactly zero gives an exact zero product
        if not self.terms and self.cutoff is None:
            return None
        if not other.terms and other.cutoff is None:
            return None
        cands = []
        if self.cutoff is not None:
            cands.append(self.cutoff + other.leading_exponent())
        if other.cutoff is not None:
            cands.append(other.cutoff + self.leading_exponent())
        return min(cands) if cands else None

    def scale(self, k):
        k = _coerce(k)
        if k.is_zero():
            return QSeries({}, self.cutoff)
        return QSeries({e: c * k for e, c in self.terms.items()}, self.cutoff)

    def shift_q(self, de):
        de = qq(de)
        cut = None if self.cutoff is None else self.cutoff + de
        return QSeries({e + de: c for e, c in self.terms.items()}, cut)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.invert() ** (-n)
        return _power(self, n, QSeries.one(None))

    def invert(self, cutoff=None):
        """Multiplicative inverse up to the cutoff; the leading exponent is
        negated.  A zero series is not invertible."""
        if not self.terms:
            raise NonInvertibleError("non-invertible zero series")
        e0 = min(self.terms)
        c0 = self.terms[e0]
        if len(self.terms) == 1 and self.cutoff is None:
            return QSeries({-e0: c0.inverse()}, cutoff)
        if self.cutoff is not None:
            tcut = self.cutoff - 2 * e0
            if cutoff is not None:
                tcut = min(tcut, qq(cutoff))
        elif cutoff is not None:
            tcut = qq(cutoff)
        else:
            raise NonInvertibleError(
                "cannot invert a non-monomial exact series without a cutoff")
        inv0 = c0.inverse()
        # self = c0 q^e0 (1 + u) with u of positive leading exponent, and
        # b = 1/(1 + u) solves b_0 = 1, b_e = -sum_f u_f b_(e-f) below the
        # precision tcut + e0.  Exponents are scaled by QEXP_DENOMINATOR_BOUND
        # to ints, which the denominator check on stored exponents allows.
        D = QEXP_DENOMINATOR_BOUND
        P = -qfloor(-(tcut + e0) * D)  # integer exponents e < P are kept
        nu = sorted((int((e - e0) * D), -(c * inv0))
                    for e, c in self.terms.items() if e != e0)
        b = {0: WRAT_ONE} if P > 0 else {}
        for e in range(1, P):
            acc = WRAT_ZERO
            for f, c in nu:
                if f > e:
                    break
                be = b.get(e - f)
                if be is not None:
                    acc = acc + c * be
            if acc:
                b[e] = acc
        return QSeries({qq(e, D) - e0: c * inv0 for e, c in b.items()}, tcut)

    def truncate(self, cutoff):
        if cutoff is None:
            return self
        cutoff = qq(cutoff)
        cut = cutoff if self.cutoff is None else min(self.cutoff, cutoff)
        return QSeries({e: c for e, c in self.terms.items() if e < cut}, cut)

    # -- maps -------------------------------------------------------------------

    def substitute(self, m, multicover=False):
        """q -> q^m together with w -> w^m (plain) or w -> -(-w)^m (multicover)."""
        m = int(m)
        if m < 1:
            raise SeriesError("substitution requires m >= 1")
        cut = None if self.cutoff is None else self.cutoff * m
        return QSeries(
            {e * m: c.substitute(m, multicover) for e, c in self.terms.items()},
            cut)

    # -- comparisons ---------------------------------------------------------------

    def eq_to_cutoff(self, other, cutoff=None):
        """Equality of all coefficients below the tightest available cutoff."""
        cuts = [c for c in (self.cutoff, other.cutoff, cutoff) if c is not None]
        cut = min(cuts) if cuts else None
        exps = set(self.terms) | set(other.terms)
        for e in exps:
            if cut is not None and e >= cut:
                continue
            if self.coeff(e) != other.coeff(e):
                return False
        return True

    def __eq__(self, other):
        return (isinstance(other, QSeries) and self.terms == other.terms
                and self.cutoff == other.cutoff)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.cutoff))

    def __repr__(self):
        bits = ["q^(%s)*%r" % (e, self.terms[e]) for e in sorted(self.terms)[:6]]
        if len(self.terms) > 6:
            bits.append("...")
        return "QSeries[%s | cutoff=%s]" % (" + ".join(bits) or "0", self.cutoff)
