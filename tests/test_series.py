import inspect
from math import ceil, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from bpsinv import intpoly
from bpsinv.blocks import blowup_theta, eta_series, theta_hat
from bpsinv.exactq import qq
from bpsinv.series import (
    VPoly, WRat, QSeries, SeriesError, NonInvertibleError, WRAT_ONE, WRAT_ZERO,
    _from_lifted,
)

from oracles import (
    RefSeries, coeff, geometric_invert, is_polynomial, one_minus_w, prs_gcd,
    support, vpoly_coeff, wrat_conjugate,
)


def w(j):
    return WRat.w_power(j)


def test_vpoly_mul():
    a = VPoly({0: 1, 2: 1})            # 1 + w
    b = VPoly({0: 1, 2: -1})           # 1 - w
    assert a * b == VPoly({0: 1, 4: -1})
    assert a * VPoly() == VPoly()


def test_wrat_strips_monomials_and_content():
    a = VPoly({2: 2, 4: 2})            # 2w(1 + w)
    b = VPoly({-2: 3, 0: 3})           # 3w^-1(1 + w)
    r = WRat(a, b)
    assert r == WRat(VPoly({4: qq(2, 3)}))
    assert is_polynomial(r)
    assert WRat(b, a).den == VPoly({0: 1})


def test_wrat_canonical_form():
    # (2 - 2w^2) / (4 - 4w^4) reduces to monic-denominator canonical form
    num = VPoly({0: 2, 4: -2})
    den = VPoly({0: 4, 8: -4})
    r = WRat(num, den)
    r2 = WRat(VPoly({0: qq(1, 2)}), VPoly({0: 1, 4: 1}))
    assert r == r2
    assert hash(r) == hash(r2)
    assert vpoly_coeff(r.den, r.den.max_exp) == 1
    assert r.den.min_exp == 0


def test_wrat_field_ops():
    x = w(1) - w(-1)                    # w - 1/w
    assert (x * x.inverse()) == WRAT_ONE
    assert x + WRAT_ZERO == x
    third = WRat.from_rational(qq(1, 3))
    assert third * WRat.from_rational(3) == WRAT_ONE
    # 1/(w - w^-1) has the familiar closed form -w/(1-w^2)
    assert x.inverse() == WRat.from_rational(-1) * w(1) / one_minus_w(2)


def test_wrat_division_by_an_int_and_int_arguments():
    x = WRat(VPoly({1: 3, -2: qq(2, 5)})) / WRat(VPoly({0: 1, 2: 2}))
    for n in (1, -1, 2, -3, 4, 6):
        assert x / n == x.scale(qq(1, n)) == x * WRat.from_rational(qq(1, n))
    assert (x - x) / 3 == WRAT_ZERO
    assert x.scale(-2) == x.scale(qq(-2)) and w(3) == w(qq(3))
    assert WRat.from_rational(4) == WRat.from_rational(qq(4))
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        WRat(VPoly({1: 3}), VPoly({}))


def test_qseries_from_int_exponents():
    x = w(1) - w(-1)
    # E in 24ths; zeros and exponents at or above the cutoff are dropped
    s = QSeries.from_grid({-3: x, 5: x - x, 47: x, 48: x}, qq(2))
    assert s == QSeries({qq(-1, 8): x, qq(47, 24): x}, qq(2))
    assert QSeries({1: x, 2: x}) == QSeries.from_grid({24: x, 48: x})
    assert coeff(s, qq(-1, 8)) == x and coeff(s, -3) == WRAT_ZERO
    assert coeff(s, qq(1, 5)).is_zero()
    with pytest.raises(SeriesError):
        QSeries({qq(1, 5): 1})


def test_wrat_multicover_substitution():
    # 1/(w - w^-1) -> -1/(w^2 - w^-2) at m=2 and +1/(w^3 - w^-3) at m=3
    inv = (w(1) - w(-1)).inverse()
    m2 = inv.substitute(2)
    assert m2 == (w(2) - w(-2)).inverse().scale(-1)
    m3 = inv.substitute(3)
    assert m3 == (w(3) - w(-3)).inverse()
    # zero takes the general path to the same canonical zero
    for m in (1, 2, 3, 4):
        assert WRAT_ZERO.substitute(m) == WRAT_ZERO
        assert not WRAT_ZERO.substitute(m)


def test_multicover_requires_integer_w_support():
    half = WRat.w_power(qq(1, 2))
    with pytest.raises(SeriesError):
        half.substitute(2)
    with pytest.raises(SeriesError):
        QSeries({0: half}).substitute(3)


def test_invert_and_substitute_take_no_options():
    def params(f):
        return list(inspect.signature(f).parameters)
    assert params(QSeries.invert) == ["self"]
    assert params(QSeries.substitute) == params(WRat.substitute) == \
        ["self", "m"]


def test_qseries_difference_of_squares():
    one_plus = QSeries({0: 1, 1: 1}, cutoff=3)
    one_minus = QSeries({0: 1, 1: -1}, cutoff=3)
    prod = one_plus * one_minus
    assert prod.eq_to_cutoff(QSeries({0: 1, 2: -1}, cutoff=3))


def test_qseries_additive_identity():
    a = QSeries({qq(-1, 8): w(1), 2: w(-1)}, cutoff=4)
    assert (a + QSeries.zero()) == a


def test_qseries_geometric_inverse():
    a = QSeries({0: 1, 1: -1}, cutoff=5)      # 1 - q
    inv = a.invert()
    expect = QSeries({n: 1 for n in range(5)}, cutoff=5)
    assert inv.eq_to_cutoff(expect)
    assert (a * inv).eq_to_cutoff(QSeries.one(5))


def test_qseries_monomial_inverse():
    mono = QSeries({qq(1, 8): w(1) - w(-1)})
    inv = mono.invert()
    assert inv.cutoff is None
    assert inv.terms[qq(-1, 8)] == (w(1) - w(-1)).inverse()


def test_invert_zero_series_raises():
    with pytest.raises(NonInvertibleError):
        QSeries.zero(3).invert()


def test_substitute_identity_and_scaling():
    a = QSeries({qq(-1, 8): w(1), 1: w(2)}, cutoff=3)
    assert a.substitute(1) == a
    b = a.substitute(2)
    assert b.cutoff == 6
    # w^j -> (-1)^j w^(2j)
    assert b == QSeries({qq(-1, 4): -w(2), 2: w(4)}, cutoff=6)
    assert a.substitute(3) == QSeries({qq(-3, 8): w(3), 3: w(6)}, cutoff=9)
    # scaling by zero keeps no zero coefficients
    for k in (0, qq(0), WRAT_ZERO):
        assert a.scale(k) == QSeries.zero(3)
        assert a.scale(k).terms == {} and a.scale(k).is_zero()


def test_mul_cutoff_propagation():
    # negative leading exponents erode precision exactly as they should
    a = QSeries({-1: 1, 0: 1}, cutoff=3)
    b = QSeries({-2: 1}, cutoff=4)
    assert (a * b).cutoff == min(3 + (-2), 4 + (-1))


# -- randomized algebra ------------------------------------------------------

_coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def small_wrat(draw, allow_zero=True):
    num = {draw(st.integers(-3, 3)): draw(_coeff) for _ in range(draw(st.integers(1, 2)))}
    p = VPoly(num)
    if p.is_zero() and not allow_zero:
        p = VPoly({0: 1})
    return WRat(p)


@st.composite
def small_series(draw, invertible=False):
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n):
        e = qq(draw(st.integers(-2, 5)), draw(st.sampled_from([1, 2, 8])))
        terms[e] = draw(small_wrat())
    s = QSeries(terms, cutoff=qq(draw(st.integers(2, 4))))
    if invertible and s.is_zero():
        s = QSeries({0: 1}, cutoff=s.cutoff)
    return s


@settings(max_examples=150, deadline=None)
@given(small_series(), small_series(), small_series())
def test_ring_axioms(a, b, c):
    lhs = (a + b) * c
    rhs = a * c + b * c
    assert lhs.eq_to_cutoff(rhs)
    assert ((a * b) * c).eq_to_cutoff(a * (b * c))
    assert (a + b).eq_to_cutoff(b + a)


@settings(max_examples=1000, deadline=None)
@given(small_series(invertible=True))
def test_invert_round_trip(a):
    inv = a.invert()
    assert (a * inv).eq_to_cutoff(QSeries.one())
    assert (inv * a).eq_to_cutoff(QSeries.one())


@settings(max_examples=200, deadline=None)
@given(small_wrat(), small_wrat(allow_zero=False), small_wrat(allow_zero=False))
def test_wrat_canonical_scaling(a, b, c):
    # equal fractions reduce to identical representations
    x = a / b
    y = (a * c) / (b * c)
    assert x == y and hash(x) == hash(y)


# -- independent oracle: WRat against plain VPoly arithmetic -----------------

_rational = st.sampled_from(
    [qq(-2), qq(-1), qq(-1, 3), qq(1, 2), qq(2, 3), qq(1), qq(3), qq(5, 7)])


@st.composite
def true_wrat(draw, even=False):
    """A WRat with rational coefficients and a genuine denominator, often
    non-cyclotomic (2v + 1, v^2 - 3, ...)."""
    step = 2 if even else 1

    def poly(lo, hi, size):
        return VPoly({step * draw(st.integers(lo, hi)): draw(_rational)
                      for _ in range(draw(st.integers(1, size)))})

    num = poly(-2, 3, 3)
    den = poly(-1, 3, 3)
    if den.is_zero():
        den = VPoly({0: qq(2), step: qq(1)})
    return WRat(num, den)


def _subs_multicover(p, m):
    """w^j -> (-1)^(j(m+1)) w^(jm) on integer-w support."""
    return VPoly({e * m: -c if (e // 2) * (m + 1) % 2 else c
                  for e, c in p.items()})


def _plus(p, q):
    out = dict(p.items())
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return VPoly(out)


def _same_value(x, num, den):
    # x == num/den, checked by cross-multiplication of Laurent polynomials
    return x.num * den == num * x.den


def _monic_den(x):
    d = x.den
    return d.min_exp == 0 and vpoly_coeff(d, d.max_exp) == 1


def _content_form(x):
    # the rational content p/q: q > 0, gcd(p, q) = 1, and zero is 0/1
    return x._q > 0 and gcd(x._p, x._q) == 1 and (x._p or x._q == 1)


@settings(max_examples=300, deadline=None)
@given(true_wrat(), true_wrat())
def test_wrat_against_vpoly_oracle(a, b):
    prod, total = a * b, a + b
    assert _same_value(prod, a.num * b.num, a.den * b.den)
    assert _same_value(total, _plus(a.num * b.den, b.num * a.den),
                       a.den * b.den)
    assert prod == WRat(a.num * b.num, a.den * b.den) == b * a
    for x in (a, b, prod, total, a - b, wrat_conjugate(a)):
        assert _monic_den(x)
        assert _content_form(x)
        y = WRat(x.num, x.den)
        assert y == x and hash(y) == hash(x)
    assert a - a == WRAT_ZERO and _content_form(a - a)
    if a:
        assert _same_value(b / a, b.num * a.den, b.den * a.num)
        assert _content_form(b / a) and _content_form(a.inverse())
    conj = wrat_conjugate(a)
    assert _same_value(conj, a.num.conjugate(), a.den.conjugate())
    for k in (qq(-3, 4), qq(6), qq(0)):
        assert _content_form(a.scale(k))
        assert _same_value(a.scale(k), a.num * VPoly({0: k}), a.den)


@settings(max_examples=200, deadline=None)
@given(true_wrat(even=True), st.integers(1, 4))
def test_wrat_multicover_against_vpoly_oracle(a, m):
    assert a.is_even_support()
    s = a.substitute(m)
    assert _monic_den(s)
    assert _content_form(s)
    num, den = _subs_multicover(a.num, m), _subs_multicover(a.den, m)
    assert _same_value(s, num, den)
    assert s == WRat(num, den)
    assert (wrat_conjugate(a) == a) == (
        a.num * a.den.conjugate() == a.num.conjugate() * a.den)


# -- independent oracle: invert and powers against plain products ------------

@st.composite
def invert_case(draw):
    """A series with exponents in steps of 1, 1/8 or 1/24, possibly negative
    leading exponents, a leading coefficient that need not be a unit of
    Z[v, 1/v], and exact (raising unless a monomial) or truncated input.
    Cutoffs also take steps of 1/5, which no stored exponent can meet."""
    step = draw(st.sampled_from([1, 8, 24]))
    ks = draw(st.lists(st.integers(-step, 2 * step), min_size=1, max_size=4,
                       unique=True))
    terms = {qq(k, step): draw(small_wrat(allow_zero=False)) for k in ks}
    lead = qq(min(ks), step)
    terms[lead] = draw(st.one_of(small_wrat(allow_zero=False), true_wrat()))
    cut = None
    if draw(st.booleans()):
        den = draw(st.sampled_from([step, 5]))
        cut = lead + qq(draw(st.integers(1, 3 * den)), den)
    return QSeries(terms, cut)


@settings(max_examples=400, deadline=None)
@given(invert_case())
def test_invert_matches_geometric_series(a):
    try:
        expect = geometric_invert(a)
    except NonInvertibleError:
        with pytest.raises(NonInvertibleError):
            a.invert()
        return
    got = a.invert()
    assert got.terms == expect.terms
    assert got.cutoff == expect.cutoff


@st.composite
def integral_quotient_case(draw):
    """A series whose terms divided by its leading one lie in Z[v, 1/v], so
    that its inverse takes the integer recurrence: eta, theta_hat(k) for
    k = 1..4, the lattice sum Theta_{r,k} for r <= 4 and every k but
    Theta_{4,2} (below), or a sparse series c0 q^e0 (1 + sum g_f q^f) with a
    non-monomial c0 and Laurent polynomials g_f with integer coefficients,
    exact or not.  Cutoffs fall on the 1/24 grid and off it, in steps of
    1/5 and 1/7."""
    den = draw(st.sampled_from([24, 5, 7]))
    kind = draw(st.sampled_from(["eta", "theta_hat", "lattice", "sparse"]))
    if kind == "eta":
        return eta_series(qq(draw(st.integers(den // 24 + 1, 3 * den)), den))
    cut = qq(draw(st.integers(1, 3 * den)), den)
    if kind == "theta_hat":
        return theta_hat(draw(st.integers(1, 4)), cut)
    if kind == "lattice":
        r, k = draw(st.sampled_from([(r, k) for r in range(1, 5)
                                     for k in range(r) if (r, k) != (4, 2)]))
        return blowup_theta(r, k, cut)
    lead = draw(st.one_of(true_wrat(), small_wrat(allow_zero=False)))
    assume((lead._n, lead._d) != ((1,), (1,)))
    e0 = qq(draw(st.integers(-8, 8)), 8)
    terms = {e0: lead}
    for _ in range(draw(st.integers(0, 3))):
        f = qq(draw(st.integers(1, 24)), draw(st.sampled_from([1, 8, 24])))
        terms[e0 + f] = lead * draw(small_wrat(allow_zero=False))
    return QSeries(terms, None if len(terms) == 1 and draw(st.booleans())
                   else e0 + cut)


@settings(max_examples=150, deadline=None)
@given(integral_quotient_case(), st.integers(-2, 48))
def test_integer_inversion_matches_the_wrat_recurrence(a, P):
    """The recurrence on integer polynomials against the one on WRat, on the
    same quotients, for P <= 0 too, and the inverse against the oracle's."""
    assume(not a.is_zero())
    t = a._canon()
    E0 = min(t)
    inv0 = t[E0].inverse()
    nu = sorted((E - E0, -(c * inv0)) for E, c in t.items() if E != E0)
    assert all(c._q == 1 and c._d == (1,) for _, c in nu)
    ints = [(f, c._p, c._s, c._n) for f, c in nu]
    b = _from_lifted(intpoly._inverse_ints(ints, P, 0, (1, 1, 0, (1,), (1,))),
                     None)
    wrat = intpoly._inverse_terms(nu, P, WRAT_ONE, WRAT_ZERO)
    assert b.terms == {qq(e, 24): c for e, c in wrat.items()}
    _same(a.invert(), RefSeries(a.terms, a.cutoff).invert())


def test_lattice_sum_4_2_takes_the_wrat_recurrence():
    # its lead w^-4 (1 + w^4)(1 + w^2 + w^4) does not divide its q^(3/2)
    # term in Z[v, 1/v]: the quotient keeps 1 + w^2 + w^4 as denominator.
    # The plane's rank-4 route_k = 2, which only the library asks for,
    # inverts it
    theta = blowup_theta(4, 2, qq(3))
    t = theta._canon()
    E0 = min(t)
    assert not all((c * t[E0].inverse())._d == (1,) for c in t.values())
    _same(theta.invert(), RefSeries(theta.terms, theta.cutoff).invert())


@settings(max_examples=150, deadline=None)
@given(small_series(), st.booleans(), st.integers(0, 5))
def test_pow_matches_repeated_multiplication(a, exact, n):
    if exact:
        a = QSeries(a.terms)
    series = QSeries.one()
    for _ in range(n):
        series = series * a
    power = a ** n
    assert power.terms == series.terms
    assert power.cutoff == series.cutoff


# -- independent oracle: integer exponents against a rational-keyed series ----

_q_cut = st.one_of(
    st.none(),
    st.builds(qq, st.integers(-5, 20), st.just(5)),
    st.builds(qq, st.integers(-24, 96), st.just(24)))


@st.composite
def grid_series(draw, near=None):
    """(QSeries, RefSeries) from the same terms: exponents with denominators
    1, 2, 3, 4, 8 and 24, often a negative leading exponent, zero
    coefficients that must be dropped, and an exact input or a cutoff in
    steps of 1/5 or 1/24.  For its own cutoff and for ``near`` it adds the
    largest exponent on the 1/24 grid below the cutoff (kept) and the cutoff
    itself when on the grid (dropped)."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        den = draw(st.sampled_from([1, 2, 3, 4, 8, 24]))
        terms[qq(draw(st.integers(-den, 3 * den)), den)] = draw(small_wrat())
    cut = draw(_q_cut)
    for c in (cut, near):
        if c is not None:
            below = qq(ceil(24 * c) - 1, 24)
            terms[below] = draw(small_wrat(allow_zero=False))
            if (24 * c).denominator == 1:
                terms[c] = draw(small_wrat(allow_zero=False))
    return QSeries(terms, cut), RefSeries(terms, cut)


def _same(got, ref):
    assert got.terms == ref.terms
    assert got.cutoff == ref.cutoff


@settings(max_examples=300, deadline=None)
@given(st.data(), _q_cut, st.integers(1, 3))
def test_qseries_against_rational_reference(data, cut, m):
    a, ra = data.draw(grid_series(cut))
    b, rb = data.draw(grid_series(cut))
    _same(a, ra)
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(a * b, ra * rb)
    _same(a.truncate(cut), ra.truncate(cut) if cut is not None else ra)
    if all(c.is_even_support() for c in a.terms.values()):
        _same(a.substitute(m), ra.substitute(m))
    assert [a.terms[e] for e in support(a)] == \
        [ra.terms[e] for e in sorted(ra.terms)]
    for other, rother in ((b, rb), (a.truncate(cut), ra), (a + b, ra + rb)):
        assert a.eq_to_cutoff(other, cut) == ra.eq_to_cutoff(rother, cut)
    if a.is_zero():
        return
    arg = None if cut is None else min(cut, qq(2))
    try:
        expect = ra.invert(arg)
    except NonInvertibleError:
        with pytest.raises(NonInvertibleError):
            a.invert()
        return
    _same(a.invert().truncate(arg), expect)


# -- lifted products: coefficients over unequal denominators -----------------

def _shifted(x, k, content):
    """x v^k scaled by a rational content."""
    return (x * WRat.w_power(qq(k, 2))).scale(content)


@st.composite
def lifted_operands(draw):
    """((a, ra), (b, rb), (c, rc), E0, E1): series whose coefficients come from
    ``true_wrat``, each with at least two distinct denominators, v-shifts
    down to v^-4 and a rational content per term.  The two products that
    land on E0 in a * b cancel, and so do the two terms at a's second
    exponent E1 in a + c.  E0 lies below the cutoff of a * b, so the
    cancellation happens inside the product's precision."""
    step = draw(st.sampled_from([1, 8, 24]))
    gap = qq(draw(st.integers(1, 2 * step)), step)

    def exponent():
        return qq(draw(st.integers(-step, step)), step)

    def coefficient():
        return _shifted(draw(true_wrat()), draw(st.integers(-4, 1)),
                        draw(_rational))

    e0, f0 = exponent(), exponent()
    x0, x1, u1 = coefficient(), coefficient(), coefficient()
    a = {e0: x0, e0 + gap: x1}
    if draw(st.booleans()):
        e2 = e0 + gap + qq(draw(st.integers(1, step)), step)
        a[e2] = coefficient()
    # x0 u1 + x1 u0 = 0 at exponent e0 + f0 + gap
    b = {f0: -(x0 * u1) / x1, f0 + gap: u1}
    c = {e0 + gap: -x1, e0 - qq(draw(st.integers(1, step)), step):
         coefficient()}
    for terms in (a, b, c):
        assume(len({x.den for x in terms.values()}) >= 2)

    def cutoff(terms):
        if draw(st.booleans()):
            return None
        return max(terms) + qq(draw(st.integers(1, step)), step)

    out = []
    for terms in (a, b, c):
        cut = cutoff(terms)
        out.append((QSeries(terms, cut), RefSeries(terms, cut)))
    return out + [e0 + f0 + gap, e0 + gap]


@settings(max_examples=200, deadline=None)
@given(lifted_operands())
def test_lifted_product_against_rational_reference(case):
    (a, ra), (b, rb), (c, rc), E0, E1 = case
    product, total = a * b, a + c
    _same(product, ra * rb)
    _same(b * a, ra * rb)
    assert E0 not in product.terms
    _same(a * a, ra * ra)
    _same(a * c, ra * rc)
    _same(total, ra + rc)
    assert E1 not in total.terms
    _same((a + c) * b, (ra + rc) * rb)


def _is_lifted(x):
    """True when x holds the lifted form (a nonzero product or sum not yet
    read); a canonical zero holds no lift."""
    return x._lifted is not None or x.is_zero()


@settings(max_examples=150, deadline=None)
@given(lifted_operands(), st.data())
def test_lifted_chains_against_rational_reference(case, data):
    """Chains of 3-5 products, sums and differences whose other operand is
    canonical (a, b, c) or an earlier lifted result, with squaring,
    negation and truncation of lifted results in between.  No
    result is read until the chain ends, so every step runs on the forms
    the steps before it left."""
    (a, ra), (b, rb), (c, rc), _, _ = case
    x, rx = a * b, ra * rb
    done = [(a, ra), (b, rb), (c, rc), (x, rx)]
    for step in data.draw(st.lists(st.sampled_from(
            ["*", "+", "-", "square", "neg", "truncate"]),
            min_size=3, max_size=5)):
        # products build a lift and the other steps keep one, except that a
        # sum with a zero operand is the other operand in its own form
        lifted = step in ("*", "square") or _is_lifted(x)
        if step in ("*", "+", "-"):
            y, ry = done[data.draw(st.integers(0, len(done) - 1))]
            if step != "*":
                lifted = lifted and _is_lifted(y) or not (
                    x.is_zero() or y.is_zero())
            if step == "*":
                x, rx = x * y, rx * ry
            elif step == "+":
                x, rx = x + y, rx + ry
            else:
                x, rx = x - y, rx - ry
        elif step == "square":
            x, rx = x * x, rx * rx
        elif step == "neg":
            x, rx = -x, -rx
        else:
            lead = x.leading_exponent()
            if lead is None:
                continue
            cut = lead + qq(data.draw(st.integers(0, 48)), 24)
            x, rx = x.truncate(cut), rx.truncate(cut)
        assert _is_lifted(x) or not lifted, step
        done.append((x, rx))
    x, rx = x * c, rx * rc
    # the same value over other denominators, built canonically: equal and
    # of equal hash while x and its twin are lifted, and their difference
    # cancels to zero
    canonical = QSeries(rx.terms, rx.cutoff)
    twin = -(-x)
    zero = x - canonical
    assert _is_lifted(x) and _is_lifted(twin)
    assert hash(x) == hash(canonical)
    assert twin == canonical
    assert zero.is_zero() and zero.cutoff == rx.cutoff
    for got, ref in done + [(x, rx)]:
        _same(got, ref)


# -- polynomial gcd: the heuristic gcd against the PRS oracle ---------------

def _normal(p):
    """p in the canonical form: primitive, positive leading coefficient."""
    return intpoly._primitive(list(p))[1]


@st.composite
def int_poly(draw, max_deg):
    """A polynomial with nonzero constant and leading terms: small random
    coefficients or a cyclotomic-like 1 +- v^k."""
    if draw(st.booleans()):
        k = draw(st.integers(1, max_deg))
        return (1,) + (0,) * (k - 1) + (draw(st.sampled_from([1, -1])),)
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=1,
                           max_size=max_deg + 1))
    inner = coeffs[1:-1] if len(coeffs) > 1 else []
    ends = [draw(st.integers(1, 30)) * draw(st.sampled_from([1, -1]))
            for _ in range(min(len(coeffs), 2))]
    return tuple(ends[:1] + inner + ends[1:])


@settings(max_examples=200, deadline=None)
@given(int_poly(6), int_poly(8), int_poly(8), st.integers(1, 3))
def test_gcd_against_prs_oracle_with_cofactors(g, u, w, k):
    g = _normal(g)
    a = _normal(intpoly._pmul(g, u))
    b = _normal(intpoly._pmul(g, w))
    for _ in range(k - 1):
        b = intpoly._pmul(b, g)
    h, qa, qb = intpoly._int_poly_gcd(a, b)
    assert h == prs_gcd(a, b)
    assert intpoly._pmul(h, qa) == a and intpoly._pmul(h, qb) == b
    assert intpoly._quotient(h, g) is not None
    assert intpoly._int_poly_gcd(b, a) == (h, qb, qa)


def test_quotient_by_a_longer_divisor_is_none():
    # a nonzero a shorter than b is all remainder
    assert intpoly._quotient((1, 2), (1, 1, 1)) is None
    assert intpoly._quotient((-1, 0, 0, 0, 1), (1, 0, 0, 0, -2, 0, 0, 0, 1)) \
        is None
    assert intpoly._quotient((1, 2, 1), (1, 1)) == (1, 1)


def test_gcd_at_unlucky_points():
    # (1 + v)^22 and a polynomial whose value at -1 is divisible by 3^20:
    # at every point x = 2 mod 3 the two values share a spurious power of 3
    a = (1, 22, 231, 1540, 7315, 26334, 74613, 170544, 319770, 497420,
         646646, 705432, 646646, 497420, 319770, 170544, 74613, 26334, 7315,
         1540, 231, 22, 1)
    b = (39846084359, 28320721162, 23837893025, 11448583076, 5248836595,
         1682286374, 501460257, 107510640, 21689886, 2965160, 405064, 30332,
         2831, 70, 5)
    assert intpoly._int_poly_gcd(a, b) == (prs_gcd(a, b), a, b)
