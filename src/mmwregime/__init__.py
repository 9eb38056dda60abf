"""Analytic and Monte-Carlo toolkit for deciding whether an arbitrarily
located mmWave receiver operates noise-limited or interference-limited.

The pipeline: blockage statistics thin the interferer population, the
aggregate interference power is characterized through its MGF, a
maximum-entropy density stands in for the intractable exact law, and a
Neyman-Pearson likelihood-ratio test issues the regime verdict.  A
geometric Monte-Carlo simulator, mcsim, validates every analytic piece.
mcsim is a lazy module: it loads on first use, in simulate or validate.
"""

import importlib.util
import sys

from .blockage import (
    BlockageConfig,
    BlockageResult,
    GeometryConfig,
    blockage_probability,
    distance_pdf,
    mean_distance,
    mean_partial_blockage,
    nonblocked_count_pmf,
)
from .detector import (
    InfeasibleFitError,
    MeFit,
    NoiseConfig,
    detection_probability,
    fit_me_lambda,
    h0_cdf,
    h0_pdf,
    h1_pdf,
    lrt,
    lrt_area,
    np_threshold,
    regime_map,
    roc_curve,
    thermal_noise_power,
)
from .interference import (
    ChannelConfig,
    aggregate_mgf,
    dbm_to_watts,
    gamma_n,
    interferer_power_mgf,
    kappa_n,
    mean_interferer_power,
    mean_received_power,
)
from .numerics import DomainError, NumericsError, find_root, integrate
from .spectral import (
    BandConfig,
    GaussianPsd,
    RaisedCosineFilter,
    RectangularPsd,
    SpectralModel,
    frequency_offset_pdf,
    upsilon,
    upsilon_table,
)

__version__ = "0.1.0"


# the LazyLoader recipe of the importlib documentation: mcsim's body runs
# at its first attribute access, so the analytic commands never load it
_spec = importlib.util.find_spec(__name__ + ".mcsim")
_spec.loader = importlib.util.LazyLoader(_spec.loader)
mcsim = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mcsim)


def __getattr__(name: str):
    # the simulator's names, served from mcsim so that only their use loads it
    if name in ("ValidationCheck", "ValidationReport", "simulate_received_power",
                "validate_suite"):
        return getattr(mcsim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
