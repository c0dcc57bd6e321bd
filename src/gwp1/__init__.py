"""Exact computer algebra and arbitrary-precision numerics for stationary
descendent invariants of the sphere, computed along three independent routes:
residue formulas over a formal wave-function quartet, the logarithm of a
determinantal (matrix-model) expansion in scaled time variables, and the
free energy as the logarithm of the GW/H sum over partitions.
"""

from .epslaurent import EpsLaurent
from .zseries import WindowError, ZSeries
from .waves import (
    WaveExpansion,
    normalized_quartet,
    s1_series,
    solve_formal_wave,
    wave_residual,
    wave_shift,
)
from .invariants import InvariantRecord, invariant_by_genus, n_point_invariant
from .hurwitz import free_energy
from .miwa import MiwaPolynomial, power_sums_to_times
from .zmodel import (
    ZModelExpansion,
    characteristic_det_check,
    stabilization_check,
    zmodel_entry,
    zmodel_expansion,
)
from .charlier import (
    CharlierPolynomial,
    asymptotic_match_check,
    brute_force_expectation,
    char_poly_expectation,
    charlier_orthogonality_check,
    charlier_poly,
    charlier_scaling_limit_check,
)
from .special import bessel_j, gamma_real, numeric_f_g

__version__ = "1.0.0"

__all__ = [
    "EpsLaurent", "ZSeries", "WindowError",
    "WaveExpansion", "solve_formal_wave", "wave_shift",
    "wave_residual", "normalized_quartet",
    "s1_series", "InvariantRecord", "n_point_invariant",
    "invariant_by_genus", "free_energy", "MiwaPolynomial", "power_sums_to_times",
    "ZModelExpansion", "zmodel_entry", "zmodel_expansion",
    "stabilization_check", "characteristic_det_check", "CharlierPolynomial",
    "charlier_poly", "charlier_orthogonality_check", "gamma_real", "bessel_j",
    "numeric_f_g", "asymptotic_match_check", "charlier_scaling_limit_check",
    "char_poly_expectation", "brute_force_expectation",
]
