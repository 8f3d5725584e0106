"""Exact computation of refined BPS invariants of semi-stable sheaves on
Hirzebruch surfaces and the projective plane."""

from .series import QSeries, VPoly, WRat
from .geometry import ChernVector, Polarization, Surface, SUITABLE
from .invariants import Flavor, GenFun, InvariantTable, extract_table
from .compute import (
    default_cutoff, p2_genfun, p2_omega_genfun, p2_table, sigma_genfun,
    sigma_omega_genfun, sigma_table,
)
from .memo import clear_caches

__version__ = "0.1.0"

__all__ = [
    "QSeries", "VPoly", "WRat", "ChernVector", "Polarization", "Surface",
    "SUITABLE", "Flavor", "GenFun",
    "InvariantTable", "extract_table", "default_cutoff", "p2_genfun",
    "p2_omega_genfun", "p2_table", "sigma_genfun", "sigma_omega_genfun",
    "sigma_table", "clear_caches",
]
