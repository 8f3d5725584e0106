"""Exact series substrate: Laurent polynomials and rational functions in the
refinement variable v (v^2 = w), and sparse truncated q-series over that field.

A rational function is kept as (p/q) * v^s * n(v) / d(v): a rational content
held as a reduced pair of ints p, q > 0, a v-power s, and coprime integer
polynomials n, d that are primitive, have a nonzero constant term and a
positive leading coefficient.  That form is unique (Gauss's lemma in the
unique factorisation domain Z[v]), so equality and hashing are structural,
and all of the arithmetic runs on Python ints; the polynomial gcd is the
heuristic gcd ``intpoly._int_poly_gcd``, which also returns the cofactors.

A q-series stores its exponents as ints scaled by 24, the common denominator
of every exponent that occurs, and keeps its cutoff an exact rational; each
operation compares exponents against the integer cap ceil(24 * cutoff).  So
no rational is built, compared or hashed inside the product, sum and
inversion loops.

A series is held in one of two forms at a time.  The canonical form maps
each exponent to its canonical WRat.  The lifted form (``intpoly``) puts
every coefficient over one denominator, v^s N_E(v) / (Q D(v)), with Q a
positive int, D an integer polynomial and N_E an integer polynomial.
Products and sums return the lifted form: a product convolves the
numerators over Q_a Q_b and D_a D_b, and a sum brings both operands over
lcm(Q_a, Q_b) and lcm(D_a, D_b), with one polynomial gcd, and adds
integers.  Neither reduces a coefficient.  Truncation and negation act
on the lifted form as it is.  Every other reader (``terms``, equality,
hashing, inversion, scaling, substitution) goes through one accessor that
reduces each coefficient once (strip the v-power, take the primitive part,
one polynomial gcd with D, then the content against Q) and then drops the
lifted form.  The canonical form is
unique, so what a reader sees is the series term-by-term WRat arithmetic
gives, bit for bit.  A lift taken from a canonical operand is used by the
one operation and not kept, so a series never holds both forms.

Everything here is exact; no floating point enters anywhere.  Values are
immutable after construction (reading a lifted series changes its form,
never its value) and safe to share across threads.
"""

from math import gcd, lcm

from .exactq import QQ, qq
from .intpoly import (
    _ONE, _canonical, _int_poly_gcd, _inverse_ints, _inverse_terms, _lift,
    _pmul, _primitive, _product, _spread, _sum, _twist,
)

__all__ = ["VPoly", "WRat", "QSeries", "SeriesError", "NonInvertibleError"]


class SeriesError(ValueError):
    pass


class NonInvertibleError(SeriesError):
    pass


# Stored q-exponent denominators must divide this (1/24 from eta, 1/8 from
# theta, 1/3 and 1/4 from the blow-up lattice sums and wall q-shifts).
QEXP_DENOMINATOR_BOUND = 24


# ---------------------------------------------------------------------------
# Laurent polynomials in v
# ---------------------------------------------------------------------------

def _exact(x):
    """x as an exact number: an int or a rational as it is, else qq(x)."""
    return x if isinstance(x, (int, QQ)) else qq(x)


class VPoly:
    """Laurent polynomial in v with rational coefficients, v^2 = w.

    Integer powers of w sit on even v-exponents; half-integer powers of w on
    odd ones.  Zero coefficients are never stored.
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs=None):
        c = {int(e): qq(v) for e, v in (coeffs or {}).items()}
        self._c = {e: v for e, v in c.items() if v}
        self._hash = None

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def items(self):
        return self._c.items()

    @property
    def min_exp(self):
        return min(self._c)

    @property
    def max_exp(self):
        return max(self._c)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, VPoly):
            return NotImplemented
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

    # -- maps ----------------------------------------------------------------

    def conjugate(self):
        """v -> v^-1 (w -> w^-1)."""
        return VPoly({-e: v for e, v in self._c.items()})

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


def _split(p):
    """(g, L, s, n) with the nonzero VPoly p = (g / L) * v^s * n(v), n in the
    primitive integer form of intpoly, L > 0 and gcd(g, L) = 1."""
    lo = p.min_exp
    L = lcm(*(int(x.denominator) for x in p._c.values()))
    ints = [0] * (p.max_exp - lo + 1)
    for e, x in p._c.items():
        ints[e - lo] = int(x.numerator) * (L // int(x.denominator))
    g, n = _primitive(ints)
    # a prime of L divides some coefficient's reduced denominator to its
    # full power, so it does not divide that coefficient's entry of ints
    return g, L, lo, n


def _cmul(p1, q1, p2, q2):
    """(p1/q1) * (p2/q2) for reduced pairs, cross-cancelled so that the
    result is reduced; q1 q2 > 0 gives a positive denominator."""
    g1, g2 = gcd(p1, q2), gcd(p2, q1)
    return (p1 // g1) * (p2 // g2), (q1 // g2) * (q2 // g1)


# ---------------------------------------------------------------------------
# Rational functions of v
# ---------------------------------------------------------------------------

_VP_ONE = VPoly({0: 1})


class WRat:
    """Element of the fraction field Q(v), v^2 = w.

    Canonical form: (p/q) * v^s * n(v) / d(v) with p/q a nonzero rational
    kept as a pair of ints, q > 0 and gcd(p, q) = 1; s an integer; and n, d
    tuples of ints (constant term first) that are each primitive, have a
    nonzero constant term and a positive leading coefficient, and are
    coprime.  Zero is the single value with p/q = 0/1, s = 0 and
    n = d = (1,).

    The form is unique: v-powers are units of Z[v, 1/v] and go into s; Z[v]
    is a unique factorisation domain, so after cancelling gcd(n, d) each of
    n and d is fixed up to its content and sign, which go into p/q.  Equal
    values therefore have equal representations, making hashing and caching
    deterministic.  All arithmetic is on Python ints; exactq rationals
    appear only at the edges (``from_rational``, ``scale`` and the views
    below).

    ``num`` and ``den`` are Laurent-polynomial views built on each read:
    den = d / lc(d), a genuine polynomial with nonzero constant term and
    leading coefficient +1, and num = p / (q lc(d)) * v^s * n, so any
    v-monomial content lives in the numerator.
    """

    __slots__ = ("_p", "_q", "_s", "_n", "_d", "_hash")

    def __init__(self, num, den=None):
        if den is None:
            den = _VP_ONE
        if den.is_zero():
            raise ZeroDivisionError("WRat with zero denominator")
        if num.is_zero():
            p, q, s, n, d = 0, 1, 0, _ONE, _ONE
        else:
            gn, Ln, sn, n = _split(num)
            gd, Ld, sd, d = _split(den)
            _, n, d = _int_poly_gcd(n, d)
            p, q = _cmul(gn, Ln, Ld, gd)
            if q < 0:
                p, q = -p, -q
            s = sn - sd
        self._p, self._q, self._s, self._n, self._d = p, q, s, n, d
        self._hash = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rational(x):
        x = _exact(x)
        if not x:
            return WRAT_ZERO
        return _wrat(int(x.numerator), int(x.denominator), 0, _ONE, _ONE)

    @staticmethod
    def w_power(j):
        e = 2 * _exact(j)
        if e.denominator != 1:
            raise SeriesError("w-power %s is not a half-integer" % (j,))
        return _wrat(1, 1, int(e), _ONE, _ONE)

    # -- structure -----------------------------------------------------------

    @property
    def num(self):
        k = qq(self._p, self._q * self._d[-1])
        return VPoly({self._s + e: k * x for e, x in enumerate(self._n) if x})

    @property
    def den(self):
        lc = self._d[-1]
        return VPoly({e: qq(x, lc) for e, x in enumerate(self._d) if x})

    def is_zero(self):
        return not self._p

    def __bool__(self):
        return bool(self._p)

    def is_even_support(self):
        return (self._s % 2 == 0 and not any(self._n[1::2])
                and not any(self._d[1::2]))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if not self._p:
            return other
        if not other._p:
            return self
        a, b = (self, other) if self._s <= other._s else (other, self)
        g, ea, eb = _int_poly_gcd(a._d, b._d)
        # a + b = (A n_a e_b + B v^k n_b e_a) / (Q v^(-s_a) g e_a e_b)
        qa, qb = a._q, b._q
        if qa == qb:
            Q, A, B = qa, a._p, b._p
        else:
            Q = lcm(qa, qb)
            A, B = a._p * (Q // qa), b._p * (Q // qb)
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
        _, n, g = _int_poly_gcd(n, g)
        h = gcd(cN, Q)
        return _wrat(cN // h, Q // h, a._s + lo, n, _pmul(_pmul(g, ea), eb))

    __radd__ = __add__

    def __neg__(self):
        return _wrat(-self._p, self._q, self._s, self._n, self._d)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if not self._p or not other._p:
            return WRAT_ZERO
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        _, n1, d2 = _int_poly_gcd(n1, d2)
        _, n2, d1 = _int_poly_gcd(n2, d1)
        p, q = _cmul(self._p, self._q, other._p, other._q)
        return _wrat(p, q, self._s + other._s, _pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def inverse(self):
        if not self._p:
            raise ZeroDivisionError("inverse of zero WRat")
        p, q = (self._q, self._p) if self._p > 0 else (-self._q, -self._p)
        return _wrat(p, q, -self._s, self._d, self._n)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def scale(self, k):
        k = _exact(k)
        return self._scaled(int(k.numerator), int(k.denominator))

    def _scaled(self, p, q):
        """self * p/q for ints p and q > 0 with gcd(p, q) = 1."""
        if not p or not self._p:
            return WRAT_ZERO
        p, q = _cmul(self._p, self._q, p, q)
        return _wrat(p, q, self._s, self._n, self._d)

    # -- maps -----------------------------------------------------------------

    def substitute(self, m):
        """The multicover substitution w -> -(-w)^m for m >= 1, defined on
        integer-w support only."""
        m = int(m)
        if m < 1:
            raise SeriesError("substitution requires m >= 1")
        if not self.is_even_support():
            raise SeriesError("multicover substitution on half-integer w-support")
        p, n, d = self._p, self._n, self._d
        if m % 2 == 0:
            # w^j -> (-1)^j w^(jm), i.e. v -> i v^m
            if self._s % 4:
                p = -p
            n, p = _twist(n, p)
            d, p = _twist(d, p)
        return _wrat(p, self._q, self._s * m, _spread(n, m), _spread(d, m))

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, WRat):
            try:
                other = _coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        # canonical form makes structural equality sound; cross-multiplication
        # would decide it too but is never needed
        return (self._p == other._p and self._q == other._q
                and self._s == other._s and self._n == other._n
                and self._d == other._d)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._p, self._q, self._s, self._n, self._d))
        return self._hash

    def __repr__(self):
        if len(self._d) == 1:
            return "(%s)" % (self.num,)
        return "(%s)/(%s)" % (self.num, self.den)


def _wrat(p, q, s, n, d):
    """A WRat from the parts of its canonical form, taken as given."""
    x = object.__new__(WRat)
    x._p, x._q, x._s, x._n, x._d = p, q, s, n, d
    x._hash = None
    return x


def _coerce(x):
    """x as a WRat, from a WRat, an int or a rational; WRat(p) takes a VPoly."""
    if isinstance(x, WRat):
        return x
    return WRat.from_rational(x)


WRAT_ZERO = _wrat(0, 1, 0, _ONE, _ONE)
WRAT_ONE = _wrat(1, 1, 0, _ONE, _ONE)


# ---------------------------------------------------------------------------
# Sparse truncated q-series
# ---------------------------------------------------------------------------

_D = QEXP_DENOMINATOR_BOUND


def _cap(cutoff):
    """The integer cap ceil(24 * cutoff) of a rational cutoff, or None: for
    an int E, E < cap exactly when E / 24 < cutoff, on or off the 1/24
    grid."""
    if cutoff is None:
        return None
    return -(-_D * int(cutoff.numerator) // int(cutoff.denominator))


def _grid(num, den):
    """The int E = 24 num / den of q^(num/den) on the 1/24 grid."""
    E, rem = divmod(_D * num, den)
    if rem:
        raise SeriesError("q-exponent %s/%s off the 1/%d grid"
                          % (num, den, _D))
    return E


class QSeries:
    """Sparse series in q with rational exponents and WRat coefficients.

    Exponents are stored as ints E = 24 e (24 = QEXP_DENOMINATOR_BOUND,
    which every stored exponent's denominator divides), so the product,
    sum and inversion loops add, compare and hash ints only.  ``cutoff`` is
    an exact rational, an exclusive upper bound on stored exponents; ``None``
    means the series is exact (a finite q-Laurent polynomial).  Each
    operation compares against the integer cap ceil(24 cutoff) (see
    ``_cap``), which keeps exactly the exponents below the cutoff even when
    the cutoff is off the 1/24 grid.  Arithmetic propagates cutoffs
    pessimistically and never fabricates precision.

    The constructor checks its input (exponent denominators dividing 24;
    zeros and exponents at or above the cutoff dropped), and ``from_grid``
    takes int exponents E already; the arithmetic builds its valid results
    with ``_qseries`` or ``_from_lifted`` unchecked.  ``terms`` is the rational-keyed view
    {e: coefficient}, built on first use.

    A series holds either its canonical terms ``_t`` {int E: WRat} or the
    lifted form ``_lifted`` of the module docstring, never both.  Products
    and sums build the lifted form (``intpoly._product``, ``_sum``);
    ``truncate`` and negation keep it; every other reader calls
    ``_canon``, which reduces each coefficient once and drops the lift.  The
    inversion reads the canonical terms and returns the lifted form when
    its recurrence runs on integer polynomials.
    """

    __slots__ = ("_t", "_lifted", "cutoff", "_terms")

    def __init__(self, terms=None, cutoff=None):
        cutoff = None if cutoff is None else qq(cutoff)
        t = {}
        for e, c in (terms or {}).items():
            c, e = _coerce(c), _exact(e)
            if c and (cutoff is None or e < cutoff):
                t[_grid(e.numerator, e.denominator)] = c
        self._t, self._lifted, self.cutoff, self._terms = t, None, cutoff, None

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def from_grid(t, cutoff=None):
        """The series sum c q^(E/24) of {int E: WRat c}; zeros and exponents
        at or above the cutoff are dropped."""
        cutoff = None if cutoff is None else qq(cutoff)
        cap = _cap(cutoff)
        return _qseries({E: c for E, c in t.items()
                         if c and (cap is None or E < cap)}, cutoff)

    @staticmethod
    def zero(cutoff=None):
        return _qseries({}, None if cutoff is None else qq(cutoff))

    @staticmethod
    def one(cutoff=None):
        return QSeries({0: WRAT_ONE}, cutoff)

    # -- structure ---------------------------------------------------------------

    def _canon(self):
        """The canonical terms {int E: WRat}, reduced from the lifted form on
        first use, which is then dropped."""
        lifted = self._lifted
        if lifted is None:
            return self._t
        Q, s, D, lterms = lifted
        t = {}
        for E, N in lterms:
            p, q, k, n, d = _canonical(N, Q, D)
            t[E] = _wrat(p, q, s + k, n, d)
        # the terms are in place before the lifted form goes, so a reader
        # that finds no lifted form finds them
        self._t, self._lifted = t, None
        return t

    def _lift_form(self):
        """The lifted form (Q, s, D, terms) of a nonzero series; one taken
        from canonical terms is used by the caller and not kept."""
        lifted = self._lifted
        return _lift(_parts(self._t)) if lifted is None else lifted

    @property
    def terms(self):
        if self._terms is None:
            self._terms = {qq(E, _D): c for E, c in self._canon().items()}
        return self._terms

    def is_zero(self):
        return self._lifted is None and not self._t

    def leading_exponent(self):
        lifted = self._lifted
        if lifted is not None:
            return qq(lifted[3][0][0], _D)
        if not self._t:
            return self.cutoff
        return qq(min(self._t), _D)

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other):
        cut = min((c for c in (self.cutoff, other.cutoff) if c is not None),
                  default=None)
        if other.is_zero():
            return self.truncate(cut)
        if self.is_zero():
            return other.truncate(cut)
        return _from_lifted(
            _sum(self._lift_form(), other._lift_form(), _cap(cut)), cut)

    def __neg__(self):
        lifted = self._lifted
        if lifted is not None:
            Q, s, D, lterms = lifted
            return _from_lifted(
                (Q, s, D, [(E, (idx, tuple(-x for x in val)))
                           for E, (idx, val) in lterms]),
                self.cutoff)
        return _qseries({E: -c for E, c in self._t.items()}, self.cutoff)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        cut = self._mul_cut(other)
        if self.is_zero() or other.is_zero():
            return _qseries({}, cut)
        a = self._lift_form()
        b = a if other is self else other._lift_form()
        return _from_lifted(_product(a, b, _cap(cut)), cut)

    def _mul_cut(self, other):
        # a factor that is exactly zero gives an exact zero product
        if any(s.is_zero() and s.cutoff is None for s in (self, other)):
            return None
        return min((a.cutoff + b.leading_exponent() for a, b in
                    ((self, other), (other, self)) if a.cutoff is not None),
                   default=None)

    def scale(self, k):
        k = _coerce(k)
        if k.is_zero():
            return _qseries({}, self.cutoff)
        return _qseries({E: c * k for E, c in self._canon().items()},
                        self.cutoff)

    def __pow__(self, n):
        """self ** n by binary powering.  The first factor is taken as it is
        rather than multiplied into one, and the base is squared only while
        higher bits remain, so x ** 2 is the single product x * x."""
        n = int(n)
        if n < 0:
            return self.invert() ** (-n)
        base, out = self, None
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return QSeries.one(None) if out is None else out
            base = base * base

    def invert(self):
        """Multiplicative inverse, known below C - 2 e0 for c0 q^e0 (1 + u)
        known below C.  An exact series must be a monomial, and a zero
        series is never invertible.  The recurrence runs on integer
        polynomials when every u_f lies in Z[v, 1/v], else in WRat."""
        t = self._canon()
        if not t:
            raise NonInvertibleError("non-invertible zero series")
        E0 = min(t)
        c0 = t[E0]
        if self.cutoff is None:
            if len(t) > 1:
                raise NonInvertibleError("non-monomial exact series")
            return _qseries({-E0: c0.inverse()}, None)
        tcut = self.cutoff - qq(2 * E0, _D)
        inv0 = c0.inverse()
        # self = c0 q^e0 (1 + u) with u of positive leading exponent, and
        # b = 1/(1 + u) solves b_0 = 1, b_e = -sum_f u_f b_(e-f) below the
        # precision tcut + e0, i.e. for integer exponents e < P.
        P = _cap(tcut) + E0
        nu = sorted((E - E0, -(c * inv0)) for E, c in t.items() if E != E0)
        if all(c._q == 1 and c._d == _ONE for _, c in nu):
            return _from_lifted(_inverse_ints(
                [(f, c._p, c._s, c._n) for f, c in nu],
                P, E0, (inv0._p, inv0._q, inv0._s, inv0._n, inv0._d)), tcut)
        b = _inverse_terms(nu, P, WRAT_ONE, WRAT_ZERO)
        return _qseries({e - E0: c * inv0 for e, c in b.items()}, tcut)

    def truncate(self, cutoff):
        if cutoff is None:
            return self
        cutoff = qq(cutoff)
        cut = cutoff if self.cutoff is None else min(self.cutoff, cutoff)
        cap = _cap(cut)
        lifted = self._lifted
        if lifted is not None:
            Q, s, D, lterms = lifted
            return _from_lifted((Q, s, D, [t for t in lterms if t[0] < cap]),
                                cut)
        return _qseries({E: c for E, c in self._t.items() if E < cap}, cut)

    # -- maps -------------------------------------------------------------------

    def substitute(self, m):
        """q -> q^m together with w -> -(-w)^m on every coefficient."""
        m = int(m)
        if m < 1:
            raise SeriesError("substitution requires m >= 1")
        cut = None if self.cutoff is None else self.cutoff * m
        return _qseries({E * m: c.substitute(m)
                         for E, c in self._canon().items()}, cut)

    # -- comparisons ---------------------------------------------------------------

    def eq_to_cutoff(self, other, cutoff=None):
        """Equality of all coefficients below the tightest available cutoff."""
        cuts = [qq(c) for c in (self.cutoff, other.cutoff, cutoff)
                if c is not None]
        cap = _cap(min(cuts)) if cuts else None
        a, b = self._canon(), other._canon()
        return all(a.get(E, WRAT_ZERO) == b.get(E, WRAT_ZERO)
                   for E in set(a) | set(b) if cap is None or E < cap)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, QSeries) and self.cutoff == other.cutoff
            and self._canon() == other._canon())

    def __hash__(self):
        return hash((frozenset(self._canon().items()), self.cutoff))

    def __repr__(self):
        t = self._canon()
        bits = ["q^(%s)*%r" % (qq(E, _D), t[E]) for E in sorted(t)[:6]]
        if len(t) > 6:
            bits.append("...")
        return "QSeries[%s | cutoff=%s]" % (" + ".join(bits) or "0", self.cutoff)


def _parts(t):
    """The canonical parts (E, p, q, s, n, d) of each coefficient of an
    int-keyed term dict."""
    return [(E, c._p, c._q, c._s, c._n, c._d) for E, c in t.items()]


def _qseries(t, cutoff):
    """A QSeries from an int-keyed dict of nonzero WRats, every key below the
    cap of the rational (or None) cutoff, taken as given."""
    s = object.__new__(QSeries)
    s._t, s._lifted, s.cutoff, s._terms = t, None, cutoff, None
    return s


def _from_lifted(lifted, cutoff):
    """A QSeries held in the lifted form (Q, s, D, terms) of intpoly, every
    term nonzero and below the cap of the cutoff, taken as given; with no
    terms it is the canonical zero."""
    if not lifted[3]:
        return _qseries({}, cutoff)
    s = object.__new__(QSeries)
    s._t, s._lifted, s.cutoff, s._terms = None, lifted, cutoff, None
    return s
