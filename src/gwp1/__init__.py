"""Exact computer algebra and arbitrary-precision numerics for stationary
descendent invariants of the sphere, computed along three independent routes:
residue formulas over a formal wave-function quartet, the logarithm of a
determinantal (matrix-model) expansion in scaled time variables, and the
free energy as the logarithm of the GW/H sum over partitions.

The numeric layer, `gwp1.special` and `gwp1.charlier`, is registered unexecuted:
`import gwp1`, `from gwp1 import charlier` and every exact query leave both
uncompiled, and the first attribute read on either module, or on a numeric name
of the package (`gwp1.bessel_j`), runs it.
"""

import importlib.util
import sys

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


def _lazy(name: str):
    """The submodule `name`, in `sys.modules` and unexecuted until its first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


special = _lazy("special")
charlier = _lazy("charlier")
_NUMERIC = {
    **dict.fromkeys(["bessel_j", "gamma_real", "numeric_f_g"], special),
    **dict.fromkeys(["CharlierPolynomial", "charlier_poly", "charlier_orthogonality_check",
                     "asymptotic_match_check", "charlier_scaling_limit_check",
                     "char_poly_expectation", "brute_force_expectation"], charlier),
}


def __getattr__(name: str):
    if name in _NUMERIC:
        return getattr(_NUMERIC[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_NUMERIC})


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
