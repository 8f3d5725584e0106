"""Exact rationals: the one number type of cutoffs, slopes, tables and the
API edge.  Values on a known lattice are ints in units of that lattice."""

from fractions import Fraction as QQ


def qq(a, b=1):
    """Exact rational a/b; strings parse as exact fractions like "3/8".  A
    rational is returned as it is."""
    if b == 1 and type(a) is QQ:
        return a
    if isinstance(a, str):
        a = QQ(a)
        if b == 1:
            return a
    return QQ(a, b)
