"""Independent checks of pipeline output that the pipeline itself never
calls: the per-class wall-crossing delta, theta_hat and eta as truncated
products, the fibre quotient in one step, the curve stack counts, the
equal-slope rank-2 combination, the filtration discriminant, the
geometric-series inverse of a q-series, a q-series kept as a plain
{rational exponent: WRat} dict, the filtration sum along a line of slopes and
the wall-crossing sign window by brute force, w-conjugation of a WRat, the
primitive-PRS gcd of integer polynomials, the parsers of the machine-readable
encodings, the solved recursion's weights tower by tower, the Betti numbers
of Kronecker moduli, Hurwitz class numbers, a Chern vector from c2, its
twist into the fundamental domain, its slope and stored q-exponent, a
series coefficient by exponent, and the rank-3 function at a polarization
with a rank-2 function evaluated per window point.  The API edge on
rationals: tables and series encodings read through the Fraction views
(``ref_extract_table``, ``ref_qseries_to_obj``), with the support, v-power
coefficient and polynomial tests they use."""

import itertools
import math
from fractions import Fraction

from bpsinv.blocks import eta_series, fibre_quotient, theta_hat
from bpsinv.exactq import qq
from bpsinv.geometry import (
    ChernVector, Polarization, Surface, discriminant, expected_dimension,
    piece_cutoff, walls_between,
)
from bpsinv.hn import (
    _compositions, suitable_genfun_closed, suitable_genfun_recursive,
)
from bpsinv.invariants import (
    Flavor, InvariantError, InvariantTable, TableRow,
)
from bpsinv.series import (
    WRAT_ZERO, NonInvertibleError, QSeries, SeriesError, VPoly, WRat,
)
from bpsinv.wallcross import WallError, _wall_delta


# ---------------------------------------------------------------------------
# Polynomial gcd
# ---------------------------------------------------------------------------

def prs_gcd(a, b):
    """gcd of two integer polynomials (tuples, constant term first, primitive,
    nonzero constant term, positive leading coefficient) by the primitive
    polynomial remainder sequence: the Euclidean algorithm on pseudo-
    remainders with the content removed at each step."""
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r, db = a[:], len(b) - 1
        for top in range(len(r) - 1, db - 1, -1):
            t = r[top]
            if t:
                r[:top] = [x * b[-1] for x in r[:top]]
                for i, y in enumerate(b[:-1], top - db):
                    r[i] -= t * y
        r = r[:db]
        while r and not r[-1]:
            r.pop()
        if not r:
            return tuple(b) if b[-1] > 0 else tuple(-y for y in b)
        c = math.gcd(*r)
        a, b = b, [x // c for x in r]
    return (1,)


# ---------------------------------------------------------------------------
# Chern vectors and coefficients
# ---------------------------------------------------------------------------

def chern_from_c2(r, c1, c2, surface):
    """The ChernVector of rank r, first Chern class c1 and second Chern
    class c2: ch2 = c1^2 / 2 - c2."""
    c1 = tuple(int(x) for x in c1)
    return ChernVector(r, c1, qq(surface.intersect(c1, c1), 2) - qq(c2))


def twist_reduce(gamma, surface):
    """Reduce c1 into the fundamental domain {0..r-1} per basis class.

    Returns (reduced ChernVector, twisting line-bundle class L) so that the
    input equals the reduction twisted by L.  The discriminant is unchanged;
    ch2 of the reduced vector is adjusted accordingly."""
    r = gamma.r
    red = tuple(x % r for x in gamma.c1)
    L = tuple((x - y) // r for x, y in zip(gamma.c1, red))
    # ch2(E (x) L^-1) = ch2 - c1.L + r L^2/2, derived from the twist rule
    ch2 = gamma.ch2 - surface.intersect(gamma.c1, L) \
        + qq(r * surface.intersect(L, L), 2)
    return ChernVector(r, red, ch2), L


def coeff(s, e):
    """The coefficient of q^e in the series s (zero when not stored)."""
    return s.terms.get(qq(e), WRAT_ZERO)


def support(s):
    """The stored q-exponents of the series s, increasing."""
    return sorted(s.terms)


def vpoly_coeff(p, e):
    """The coefficient of v^e in the Laurent polynomial p (zero when not
    stored)."""
    return dict(p.items()).get(e, qq(0))


def is_polynomial(x):
    """True iff the WRat x is a Laurent polynomial in v."""
    return x.den == VPoly({0: 1})


# ---------------------------------------------------------------------------
# Conjugation and parsing
# ---------------------------------------------------------------------------

def wrat_conjugate(x):
    """v -> v^-1 (w -> w^-1)."""
    return WRat(x.num.conjugate(), x.den.conjugate())


def vpoly_from_obj(obj):
    return VPoly({int(e): qq(c) for e, c in obj})


def wrat_from_obj(obj):
    return WRat(vpoly_from_obj(obj["num"]), vpoly_from_obj(obj["den"]))


def qseries_from_obj(obj):
    cutoff = None if obj["cutoff"] is None else qq(obj["cutoff"])
    return QSeries({qq(e): wrat_from_obj(c) for e, c in obj["terms"]}, cutoff)


# ---------------------------------------------------------------------------
# The API edge on rationals
# ---------------------------------------------------------------------------

def vpoly_to_obj(p):
    return [[e, str(c)] for e, c in sorted(p.items())]


def ref_qseries_to_obj(s):
    """serialize.qseries_to_obj through the rational views: each exponent
    and each coefficient of the num and den views as str of its
    Fraction."""
    return {
        "cutoff": None if s.cutoff is None else str(s.cutoff),
        "terms": [[str(e), {"num": vpoly_to_obj(s.terms[e].num),
                            "den": vpoly_to_obj(s.terms[e].den)}]
                  for e in support(s)],
    }


def ref_extract_table(h):
    """invariants.extract_table on rationals: each coefficient times the
    WRat w - w^-1, checked and read as a VPoly of Fractions, with c2, Delta
    and dim from the ChernVector at each exponent.  The checks run in the
    same order and raise the same messages."""
    if h.flavor != Flavor.OMEGA:
        raise InvariantError("extract_table requires an OMEGA-flavor series")
    wminus = WRat(VPoly({2: 1, -2: -1}))
    rows = []
    for e in support(h.series):
        gamma = h.gamma_of_exponent(e)
        c2 = gamma.c2(h.surface)
        dim = expected_dimension(gamma, h.surface)
        poly = h.series.terms[e] * wminus
        if not is_polynomial(poly):
            raise InvariantError(
                "integrality violation at c2=%s: coefficient times (w-w^-1) "
                "is not a Laurent polynomial" % (c2,))
        p = poly.num
        if p.is_zero():
            continue
        if dim < 0:
            raise InvariantError(
                "nonzero invariant at expected-empty class c2=%s (dim %d)"
                % (c2, dim))
        if p.conjugate() != p:
            raise InvariantError("non-palindromic invariant at c2=%s" % (c2,))
        if any(x % 2 for x, _ in p.items()):
            raise InvariantError("half-integer w-support at c2=%s" % (c2,))
        if p.min_exp != -2 * dim or p.max_exp != 2 * dim:
            raise InvariantError(
                "w-span %s..%s does not match dimension %d at c2=%s"
                % (p.min_exp, p.max_exp, dim, c2))
        betti = []
        for i in range(dim + 1):
            b = vpoly_coeff(p, -2 * dim + 4 * i)
            if b.denominator != 1 or b < 0:
                raise InvariantError(
                    "negative or non-integer Betti number at c2=%s" % (c2,))
            betti.append(int(b))
        if any(vpoly_coeff(p, -2 * dim + 4 * i + 2) for i in range(dim)):
            raise InvariantError("odd Betti number present at c2=%s" % (c2,))
        euler = int(sum((x for _, x in p.items()), qq(0)))
        rows.append(TableRow(c2=c2, delta=discriminant(gamma, h.surface),
                             dim=dim, poincare=p, betti=tuple(betti),
                             euler=euler))
    rows.sort(key=lambda row: row.c2)
    return InvariantTable(surface=h.surface, r=h.r, c1=h.c1, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Geometric-series inverse
# ---------------------------------------------------------------------------

def geometric_invert(s):
    """QSeries.invert by summing (-u)^k with full truncated products, where
    s = c0 q^e0 (1 + u): the same cutoff rules, computed independently of
    the coefficient recurrence."""
    if not s.terms:
        raise NonInvertibleError("non-invertible zero series")
    e0 = min(s.terms)
    c0 = s.terms[e0]
    if s.cutoff is None:
        if len(s.terms) > 1:
            raise NonInvertibleError("exact non-monomial series")
        return QSeries({-e0: c0.inverse()})
    tcut = s.cutoff - 2 * e0
    inv0 = c0.inverse()
    u = QSeries({e - e0: c * inv0 for e, c in s.terms.items() if e != e0},
                s.cutoff - e0)
    p = tcut + e0  # precision of the geometric sum
    out = QSeries.one(p)
    term = QSeries.one(None)
    while u.terms:
        term = (term * (-u)).truncate(p)
        if not term.terms:
            break
        out = out + term
    return QSeries({e - e0: c * inv0 for e, c in out.terms.items()}, tcut)


# ---------------------------------------------------------------------------
# Reference q-series on rational exponents
# ---------------------------------------------------------------------------

class RefSeries:
    """A q-series as a plain {Fraction: WRat} dict with a rational cutoff
    (None when exact), built and combined term by term with the cutoff rules
    of QSeries: sums keep the smaller cutoff, products the smaller of each
    cutoff plus the other factor's leading exponent."""

    def __init__(self, terms, cutoff=None):
        self.cutoff = None if cutoff is None else qq(cutoff)
        self.terms = {}
        for e, c in terms.items():
            e = qq(e)
            if c and (self.cutoff is None or e < self.cutoff):
                self.terms[e] = c

    def _lead(self):
        return min(self.terms) if self.terms else self.cutoff

    def __add__(self, other):
        cuts = [c for c in (self.cutoff, other.cutoff) if c is not None]
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, WRat.from_rational(0)) + c
        return RefSeries(out, min(cuts) if cuts else None)

    def __neg__(self):
        return RefSeries({e: -c for e, c in self.terms.items()}, self.cutoff)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if ((not self.terms and self.cutoff is None)
                or (not other.terms and other.cutoff is None)):
            return RefSeries({}, None)
        cuts = []
        if self.cutoff is not None:
            cuts.append(self.cutoff + other._lead())
        if other.cutoff is not None:
            cuts.append(other.cutoff + self._lead())
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                out[ea + eb] = out.get(ea + eb, WRat.from_rational(0)) \
                    + ca * cb
        return RefSeries(out, min(cuts) if cuts else None)

    def truncate(self, cutoff):
        cuts = [c for c in (self.cutoff, qq(cutoff)) if c is not None]
        return RefSeries(self.terms, min(cuts))

    def substitute(self, m):
        return RefSeries(
            {e * m: c.substitute(m) for e, c in self.terms.items()},
            None if self.cutoff is None else self.cutoff * m)

    def invert(self, cutoff=None):
        """The geometric series sum_k (-u)^k of s = c0 q^e0 (1 + u), taken
        to the precision tcut + e0 of the QSeries.invert rules, or below
        ``cutoff`` if that is smaller, which bounds the oracle's work."""
        e0 = min(self.terms)
        inv0 = self.terms[e0].inverse()
        if self.cutoff is None:
            if len(self.terms) > 1:
                raise NonInvertibleError("exact non-monomial series")
            return RefSeries({-e0: inv0}, cutoff)
        tcut = self.cutoff - 2 * e0
        if cutoff is not None:
            tcut = min(tcut, qq(cutoff))
        p = tcut + e0
        minus_u = {e - e0: -(c * inv0)
                   for e, c in self.terms.items() if e != e0}
        one = WRat.from_rational(1)
        out, term = {qq(0): one}, {qq(0): one}
        while term:
            step = {}
            for ea, ca in term.items():
                for eb, cb in minus_u.items():
                    if ea + eb < p:
                        step[ea + eb] = step.get(
                            ea + eb, WRat.from_rational(0)) + ca * cb
            term = {e: c for e, c in step.items() if c}
            for e, c in term.items():
                out[e] = out.get(e, WRat.from_rational(0)) + c
        return RefSeries({e - e0: c * inv0 for e, c in out.items() if e < p},
                         tcut)

    def eq_to_cutoff(self, other, cutoff=None):
        cuts = [c for c in (self.cutoff, other.cutoff, cutoff)
                if c is not None]
        zero = WRat.from_rational(0)
        return all(self.terms.get(e, zero) == other.terms.get(e, zero)
                   for e in set(self.terms) | set(other.terms)
                   if not cuts or e < min(cuts))


# ---------------------------------------------------------------------------
# Filtrations along a line of slopes
# ---------------------------------------------------------------------------

def filtration_qshift(rank_mu_seq, surface):
    """r*Delta(total) - sum_i r_i*Delta_i for an ordered quotient sequence,
    i.e. the cross-term -(1/2) sum_i R_i R_{i-1}/r_i (mu(F_i)-mu(F_{i-1}))^2.

    Depends only on the ranks and slopes.  Nonnegative whenever consecutive
    slope differences pair to zero against an ample class (Hodge index)."""
    shift = qq(0)
    R_prev = 0
    c1_prev = None
    for r_i, mu_i in rank_mu_seq:
        c1_i = tuple(qq(r_i) * m for m in mu_i)
        if c1_prev is not None:
            R_i = R_prev + r_i
            d = tuple((a + b) / R_i - a / R_prev
                      for a, b in zip(c1_prev, c1_i))
            shift -= qq(R_i * R_prev, 2 * r_i) * surface.intersect(d, d)
            c1_prev = tuple(a + b for a, b in zip(c1_prev, c1_i))
        else:
            c1_prev = c1_i
        R_prev += r_i
    return shift


def _weight_of_sequence(slots, surface):
    """w^( -sum_{i<j} r_i r_j (mu_j - mu_i).K ) for slots [(rank, mu)]."""
    K = surface.canonical_class()
    wexp = qq(0)
    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            d = tuple(b - a for a, b in zip(slots[i][1], slots[j][1]))
            wexp -= qq(slots[i][0] * slots[j][0]) * surface.intersect(K, d)
    return WRat.w_power(wexp)


def line_filtrations(r, c1, omega, surface, bound, descending=True):
    """wallcross.line_filtrations by brute force: every ordered tuple of
    integer classes (r_i, c1_i) with sum c1 whose slopes lie on the line
    c1/r + Q omega, each c1_i in a box around r_i c1/r, ordered by the slope's
    omega-coordinate, weighed by filtration_qshift, _weight_of_sequence and
    1/run! per run of equal slopes.

    On the line mu_i - mu = t_i omega, and the shift is
    (-omega^2)/2 sum r_i t_i^2 <= bound with -omega^2 >= 1, so in the
    coordinate k the box is |c1_i - r_i mu| = sqrt(r_i) sqrt(r_i t_i^2)
    |omega_k| <= sqrt(2 bound r omega_k^2)."""
    k = min((i for i, o in enumerate(omega) if o), key=lambda i: abs(omega[i]))
    mu = tuple(qq(c, r) for c in c1)
    half = math.isqrt(math.ceil(2 * bound * r * omega[k] ** 2)) + 1
    out = {}

    def on_line(ri, x):
        """The class of rank ri on the line with k-th coordinate x, or None."""
        t = (x - ri * mu[k]) / omega[k]
        cls = tuple(ri * m + t * o for m, o in zip(mu, omega))
        return tuple(int(v) for v in cls) if all(
            v.denominator == 1 for v in cls) else None

    def slope(ri, cls):
        return qq(cls[k], ri) / omega[k]

    for ranks in _compositions(r):
        boxes = []
        for ri in ranks:
            centre = math.floor(ri * mu[k])
            classes = [on_line(ri, x)
                       for x in range(centre - half, centre + half + 1)]
            boxes.append({c for c in classes if c is not None})
        for head in itertools.product(*boxes[:-1]):
            # the last class is what the others leave of c1
            last = tuple(c - sum(h[j] for h in head) for j, c in enumerate(c1))
            if last not in boxes[-1]:
                continue
            classes = head + (last,)
            slopes = [slope(ri, c) for ri, c in zip(ranks, classes)]
            steps = [b - a for a, b in zip(slopes, slopes[1:])]
            if any(d > 0 if descending else d < 0 for d in steps):
                continue
            slots = [(ri, tuple(qq(v, ri) for v in c))
                     for ri, c in zip(ranks, classes)]
            shift = filtration_qshift(slots, surface)
            if shift > bound:
                continue
            aut = 1
            for _, run in itertools.groupby(slopes):
                aut *= math.factorial(len(list(run)))
            weight = QSeries({shift: _weight_of_sequence(slots, surface)
                              .scale(qq(1, aut))})
            key = tuple(sorted((ri, tuple(v % ri for v in c))
                               for ri, c in zip(ranks, classes)))
            out[key] = out.get(key, QSeries.zero(None)) + weight
    return out


# ---------------------------------------------------------------------------
# Sign window of the closed wall-crossing sums
# ---------------------------------------------------------------------------

def window_by_scan(r, beta, alpha, ell, J, Ebound, tiebreak):
    """wallcross._window by the per-point sign rule over a box of side
    qden Ebound, which holds every active point: one has sgn(x) y >= 1, so
    2|x| and 2|y| are at most 2 x y <= qden E.  A point (x, y) = (beta, alpha)
    mod r, x != 0, with E = (ell x^2 + 2 x y)/qden <= Ebound is kept when the
    lexicographic sign s1 of x (n + e eps) - y m = (x n - y m) + x e eps
    differs from s2 = sgn(x), as (x, y, s1 - s2); s1 = 0 raises WallError
    unless tiebreak.  Columns x = 1, 2, ..., then -1, -2, ..., each by
    increasing E."""
    qden = 4 if r == 2 else 12
    half = math.floor(qden * qq(Ebound) / 2)
    m, n, e = J.m, J.n, J.e
    out = []
    for sx in (1, -1):
        for x in range(sx, sx * (half + 1), sx):
            for y in range(-sx * half, sx * (half + 1), sx):
                if (x - beta) % r or (y - alpha) % r:
                    continue
                if ell * x * x + 2 * x * y > qden * Ebound:
                    continue
                a, b = x * n - y * m, x * e
                s1 = (a > 0) - (a < 0) if a else (b > 0) - (b < 0)
                if s1 == 0 and not tiebreak:
                    raise WallError("polarization on wall")
                if s1 != sx:
                    out.append((x, y, s1 - sx))
    return out


def rank3_by_chambers(beta, alpha, ell, J, cutoff):
    """h_{3,(beta,alpha)}(Sigma_ell, J) as displayed: the suitable base plus
    h1 times the sum over the rank-3 window of h_2(J_{|x|,|y|}) times the
    term q^E (w^-X - w^X) ds/2, each h_2 its own suitable base plus h1^2
    times its rank-2 window, whose on-wall points enter with half weight.
    Every window by the per-point sign scan, every h_2 at the cutoff of a
    rank-2 piece of the rank-3 product."""
    surface = Surface.hirzebruch(ell)

    def window(r, b, af, J, cut, tiebreak):
        qden = 4 if r == 2 else 12
        for x, y, ds in window_by_scan(r, b, af, ell, J,
                                       piece_cutoff(cut, r, 0, surface),
                                       tiebreak):
            X = (ell - 2) * x + 2 * y
            c = (WRat.w_power(-X) - WRat.w_power(X)).scale(
                qq(ds, 4 if r == 2 else 2))
            yield x, y, QSeries({qq(ell * x * x + 2 * x * y, qden): c})

    def h2(b, a, J, cut):
        W = QSeries.zero(None)
        for _, _, term in window(2, b, -a % 2, J, cut, True):
            W = W + term
        h1 = fibre_quotient(1, piece_cutoff(cut, 2, 1, surface))
        return (suitable_genfun_closed(2, (b, a), cut) + h1 * h1 * W) \
            .truncate(cut)

    af = -alpha % 3
    total = QSeries.zero(None)
    for x, y, term in window(3, beta, af, J, cutoff, False):
        J2 = Polarization.generic(abs(x), abs(y))
        cls = ((x + 2 * beta) // 3 % 2, -((y + 2 * af) // 3) % 2)
        total = total + h2(*cls, J2, piece_cutoff(cutoff, 3, 2, surface)) \
            * term
    h1 = fibre_quotient(1, piece_cutoff(cutoff, 3, 1, surface))
    return (suitable_genfun_closed(3, (beta, alpha), cutoff) + h1 * total) \
        .truncate(cutoff)


# ---------------------------------------------------------------------------
# Theta and eta as truncated products
# ---------------------------------------------------------------------------

def eta_product(cutoff):
    """Dedekind eta, q^(1/24) prod (1 - q^n), by multiplying out the factors
    below the cutoff."""
    if cutoff <= qq(1, 24):
        raise SeriesError("eta cutoff must exceed 1/24")
    body_cut = cutoff - qq(1, 24)
    prod = QSeries.one(body_cut)
    n = 1
    while n < body_cut:
        prod = prod * QSeries({0: 1, n: -1})
        n += 1
    return prod * QSeries({qq(1, 24): 1})


def theta_hat_product(k, cutoff):
    """q^(1/8) (w^k - w^-k) prod_{n>=1} (1-q^n)(1-w^{2k}q^n)(1-w^{-2k}q^n),
    by multiplying out the factors below the cutoff."""
    body_cut = cutoff - qq(1, 8)
    out = QSeries({0: WRat.w_power(k) - WRat.w_power(-k)}, body_cut)
    n = 1
    while n < body_cut:
        for j in (0, 2 * k, -2 * k):
            out = out * QSeries({0: 1, n: -WRat.w_power(j)})
        n += 1
    return out * QSeries({qq(1, 8): 1})


def fibre_quotient_one_step(r, cutoff):
    """eta^(2r-3) / (theta_hat(1)^2 ... theta_hat(r-1)^2 theta_hat(r)) in one
    step: the dense theta_hat product is built and inverted whole."""
    # den at c keeps c + (r-1)/4, 1/den c - r/4, times eta^(2r-3) c-(4r+3)/24
    pad = qq(4 * r + 3, 24)
    den = theta_hat(r, cutoff + pad)
    for j in range(1, r):
        den = den * theta_hat(j, cutoff + pad) ** 2
    num = eta_series(cutoff + pad) ** (2 * r - 3)
    return (num * den.invert()).truncate(cutoff)


def blowup_factor(r, k, cutoff):
    """B_{r,k} = eta^-r sum q^(-sum_{i<j} a_i a_j) w^(sum_{i<j} (a_i - a_j))
    over a_i in Z + k/r with sum a_i = 0: every point of a cube that holds
    the ball -sum_{i<j} a_i a_j = sum a_i^2 / 2 < cutoff + 1, with eta^-r
    from the multiplied-out product."""
    top = math.isqrt(2 * math.ceil(cutoff) + 2) + 1
    terms = {}
    for a in itertools.product(
            [qq(b, r) for b in range(-r * top, r * top + 1) if b % r == k],
            repeat=r):
        e = -sum(a[i] * a[j] for j in range(r) for i in range(j))
        if sum(a) or e >= cutoff + 1:
            continue
        w = sum(a[i] - a[j] for j in range(r) for i in range(j))
        assert w.denominator == 1
        terms[e] = terms.get(e, WRat.from_rational(0)) + WRat.w_power(int(w))
    eta_inv = (eta_product(cutoff + 1) ** r).invert()
    return eta_inv * QSeries(terms, cutoff + 1)


# ---------------------------------------------------------------------------
# Curve stack counts
# ---------------------------------------------------------------------------

def one_minus_w(j):
    """1 - w^j (j integer, possibly negative)."""
    return WRat.from_rational(1) - WRat.w_power(j)


def total_set_curve(r, g) -> WRat:
    """Virtual count of the stack of rank-r bundles on a genus-g curve:
    -w^(r^2(1-g)) (1+w^(2r-1))^(2g) / (1-w^(2r)) *
    prod_{j<r} (1+w^(2j-1))^(2g) / (1-w^(2j))^2."""
    r, g = int(r), int(g)
    if r < 1 or g < 0:
        raise SeriesError("total_set_curve requires r >= 1, g >= 0")
    one = WRat.from_rational(1)
    out = WRat.w_power(r * r * (1 - g)).scale(-1)
    out = math.prod([one + WRat.w_power(2 * r - 1)] * (2 * g), start=out)
    out = out / one_minus_w(2 * r)
    for j in range(1, r):
        out = math.prod([one + WRat.w_power(2 * j - 1)] * (2 * g), start=out)
        out = out / (one_minus_w(2 * j) * one_minus_w(2 * j))
    return out


def rank2_equal_slope_combination():
    """H_2(C_0) + (1/(1-w^4) - 1/2) H_1(C_0)^2: the equal-slope rank-2
    combination of curve stack counts; its genus-g analogue carries the
    intersection-cohomology Betti numbers of moduli of bundles on a curve."""
    c = one_minus_w(4).inverse() - WRat.from_rational(qq(1, 2))
    h1 = total_set_curve(1, 0)
    return total_set_curve(2, 0) + c * h1 * h1


# ---------------------------------------------------------------------------
# Solved-recursion weights, tower by tower
# ---------------------------------------------------------------------------

def closed_terms_by_towers(r, a):
    """The solved recursion's weights for c1 = -af as written: over the
    compositions of r into parts r_i with r_i a = 0 mod r, the sign
    (-1)^(m-1)/m times the product of each part's strict-slope tower, whose
    weights w^(2 M(rho, a/r)) / prod_j (1 - w^(2(rho_j + rho_(j+1)))) over
    the compositions rho of r_i are convolved as multisets of ranks."""
    def tower(ri):
        out = {}
        for rho in _compositions(ri):
            fracs = [x - math.floor(x) for x in itertools.accumulate(
                qq(rj * a, r) for rj in rho[:-1])]
            weight = WRat.w_power(2 * sum(
                (x + y) * f for x, y, f in zip(rho, rho[1:], fracs)))
            for x, y in zip(rho, rho[1:]):
                weight = weight / one_minus_w(2 * (x + y))
            key = tuple(sorted(rho))
            out[key] = out.get(key, 0) + weight
        return out

    total = {}
    for ranks in _compositions(r):
        if any(ri * a % r for ri in ranks):
            continue
        terms = {(): WRat.from_rational(qq((-1) ** (len(ranks) - 1),
                                           len(ranks)))}
        for ri in ranks:
            terms_next = {}
            for key, weight in terms.items():
                for part, tw in tower(ri).items():
                    k = tuple(sorted(key + part))
                    terms_next[k] = terms_next.get(k, 0) + weight * tw
            terms = terms_next
        for key, weight in terms.items():
            total[key] = total.get(key, 0) + weight
    return total


# ---------------------------------------------------------------------------
# Filtration discriminant
# ---------------------------------------------------------------------------

def mu(gamma):
    """The slope c1/r of a Chern vector, per basis class."""
    return tuple(qq(x, gamma.r) for x in gamma.c1)


def exponent_of(gamma, surface):
    """The q-exponent r Delta - r chi_top/24 at which a generating function
    of the class stores the invariant of gamma."""
    return gamma.r * discriminant(gamma, surface) \
        - qq(gamma.r * surface.chi_top, 24)


def discriminant_of_filtration(pieces, surface):
    """Discriminant of the total class, evaluated through the subobjects of a
    filtration with the given ordered quotients."""
    r = sum(p.r for p in pieces)
    out = sum((qq(p.r, r) * discriminant(p, surface) for p in pieces), qq(0))
    out += filtration_qshift(
        [(p.r, mu(p)) for p in pieces], surface) / qq(r)
    return out


# ---------------------------------------------------------------------------
# Per-class delta across one wall
# ---------------------------------------------------------------------------

class ChamberPath:
    """Ordered walls between two polarizations for a fixed class."""

    def __init__(self, start, end, walls):
        self.start = start
        self.end = end
        self.walls = walls  # [(slope, primitive direction)]


def _slope_key(J):
    """(rational, eps) part of n/m; the suitable chamber, m = eps, sits
    above every wall slope."""
    if J.m == 0:
        return (math.inf, qq(0))
    return (qq(J.n) / J.m, qq(J.e) / J.m)


def chamber_path(gamma, J_start, J_end, surface, qshift_bound=qq(6)):
    """Walls strictly between the chambers of J_start and J_end relevant for
    gamma below the q-shift bound; empty on the plane (b2 = 1) and within a
    single chamber."""
    if not surface.rank2:
        return ChamberPath(J_start, J_end, [])
    hi = _slope_key(J_start)
    lo = _slope_key(J_end)
    if hi < lo:
        hi, lo = lo, hi
    walls = []
    for s, prim in walls_between(gamma.r, surface, qshift_bound):
        if lo < (s, qq(0)) < hi:
            walls.append((s, prim))
    return ChamberPath(J_start, J_end, walls)


def wallcross_delta(gamma, J, J2, surface, cutoff=None):
    """Delta Omegabar(gamma, J -> J2) for adjacent chambers; the two-sided
    filtration sum evaluated at the single wall between them, with rank-2
    piece functions marched from the suitable chamber to that wall."""
    if cutoff is None:
        cutoff = gamma.r * discriminant(gamma, surface) + 1
    cutoff = qq(cutoff)
    path = chamber_path(gamma, J, J2, surface, qshift_bound=cutoff + 2)
    if len(path.walls) > 1:
        raise WallError("polarizations are not in adjacent chambers")
    red, _ = twist_reduce(gamma, surface)
    if not path.walls:
        return WRat.from_rational(0)
    if gamma.r > 3:
        raise WallError("per-class crossing covers r <= 3 only")
    slope, omega = path.walls[0]
    bound = cutoff + 1
    before = _states_above(slope, surface, bound)
    after = dict(before)
    for key in before:
        if key[0] == 2:
            after[key] = before[key] + _wall_delta(
                2, key[1], omega, surface, bound, before, before)
    dser = _wall_delta(gamma.r, red.c1, omega, surface, bound, before, after)
    if _slope_key(J) < _slope_key(J2):
        dser = -dser
    return coeff(dser, exponent_of(red, surface))


def _states_above(slope, surface, bound):
    """h1 and the rank-2 series marched from the suitable chamber down to
    just above the given wall slope, keyed by piece (rank, c1 mod rank)."""
    states = {(2, key): suitable_genfun_recursive(2, key, bound)
              for key in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    states[(1, (0, 0))] = fibre_quotient(1, bound)
    for s, omega in walls_between(2, surface, bound + 1):
        if s <= slope:
            continue
        for key in states:
            if key[0] == 2:
                states[key] = states[key] + _wall_delta(
                    2, key[1], omega, surface, bound, states, states)
    return states


# ---------------------------------------------------------------------------
# Kronecker moduli
# ---------------------------------------------------------------------------

def _interpolate(points):
    """Coefficients, constant first, of the polynomial of degree below
    len(points) through the (x, y) points, by Lagrange's formula."""
    coeffs = [qq(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, denom = [qq(1)], qq(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [lo - xj * hi for lo, hi in
                         zip([qq(0)] + basis, basis + [qq(0)])]
                denom *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / denom
    return coeffs


def kronecker_betti(a, b, arrows=3):
    """Betti numbers (b_0, b_2, ..., b_2dim) of N(arrows; a, b), the moduli
    of stable representations of the Kronecker quiver with dimension vector
    (a, b), a and b coprime, by Reineke's Harder-Narasimhan recursion
    (Invent. Math. 152, 2003).  The stack volume A_d = q^-<d,d> /
    prod_i prod_{j <= d_i} (1 - q^-j), with <d,e> = d1 e1 + d2 e2 -
    arrows d1 e2, is the sum over HN types (d^1, ..., d^s) of strictly
    decreasing slope d1/(d1 + d2) of q^-sum_{k<l}<d^l,d^k> prod A^ss_{d^k};
    (q - 1) A^ss_d counts the points of N.  The count is taken at dim + 2
    integers q, interpolated through dim + 1 of them and checked at the
    last, so a count that is no polynomial of degree dim fails."""
    def euler(d, e):
        return d[0] * e[0] + d[1] * e[1] - arrows * d[0] * e[1]

    def slope(d):
        return qq(d[0], d[0] + d[1])

    def sub(d, e):
        return (d[0] - e[0], d[1] - e[1])

    def parts(d):  # the nonzero e <= d, each after every e' <= e
        return [e for e in itertools.product(range(d[0] + 1), range(d[1] + 1))
                if any(e)]

    def points(q):
        ss, tails = {}, {}

        def tail(d, top):  # the HN types of d with every slope below top
            if not any(d):
                return 1
            if (d, top) not in tails:
                tails[d, top] = sum(head(d, e) for e in parts(d)
                                    if slope(e) < top)
            return tails[d, top]

        def head(d, e):  # the HN types of d whose first piece is e
            return ss[e] * q ** -euler(sub(d, e), e) * tail(sub(d, e), slope(e))

        for d in parts((a, b)):
            volume = q ** -euler(d, d)
            for n in d:
                for j in range(1, n + 1):
                    volume /= 1 - q ** -j
            ss[d] = volume - sum(head(d, e) for e in parts(d) if e != d)
        return (q - 1) * ss[a, b]

    dim = 1 - euler((a, b), (a, b))
    pts = [(q, points(q)) for q in map(qq, range(2, dim + 4))]
    coeffs = _interpolate(pts[:-1])
    q, count = pts[-1]
    assert sum(c * q ** i for i, c in enumerate(coeffs)) == count
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(int(c) for c in coeffs)


# ---------------------------------------------------------------------------
# Hurwitz class numbers
# ---------------------------------------------------------------------------

def hurwitz_class_number(N):
    """H(N) for N > 0: the reduced forms a x^2 + b xy + c y^2 of
    discriminant b^2 - 4ac = -N, |b| <= a <= c and b >= 0 when |b| = a or
    a = c, primitive or not, with a(x^2 + y^2) weighted 1/2 and
    a(x^2 + xy + y^2) weighted 1/3."""
    total, a = Fraction(0), 1
    while 3 * a * a <= N:
        for b in range(1 - a, a + 1):
            c, rem = divmod(b * b + N, 4 * a)
            if rem or c < a or (c == a and b < 0):
                continue
            if c == a and b in (0, a):
                total += Fraction(1, 2 if b == 0 else 3)
            else:
                total += 1
        a += 1
    return total
