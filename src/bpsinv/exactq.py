"""Exact rational arithmetic backend.

gmpy2.mpq when available (much faster), fractions.Fraction otherwise.
Both expose .numerator/.denominator and hash/compare identically.
"""

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ


def qq(a, b=1):
    """Exact rational a/b; strings parse as exact fractions like "3/8"."""
    if isinstance(a, str):
        a = QQ(a)
    return QQ(a, b)


def qfloor(x):
    """Floor of a rational, as an int."""
    return int(x.numerator // x.denominator)


def qfrac(x):
    """Fractional part {x} = x - floor(x), in [0, 1)."""
    return x - qfloor(x)


def is_integral(x) -> bool:
    return x.denominator == 1
