"""Analytic and Monte-Carlo toolkit for deciding whether an arbitrarily
located mmWave receiver operates noise-limited or interference-limited.

The pipeline: blockage statistics thin the interferer population, the
aggregate interference power is characterized through its MGF, a
maximum-entropy density stands in for the intractable exact law, and a
Neyman-Pearson likelihood-ratio test issues the regime verdict.  A
geometric Monte-Carlo simulator validates every analytic piece.
"""

from .blockage import (
    BlockageConfig,
    BlockageResult,
    GeometryConfig,
    NonblockedCount,
    blockage_probability,
    distance_pdf,
    mean_distance,
    mean_partial_blockage,
    nonblocked_count_distribution,
)
from .detector import (
    DetectionResult,
    InfeasibleFitError,
    MeFit,
    NoiseConfig,
    RegimePoint,
    detect,
    detection_probability,
    fit_me_lambda,
    h0_cdf,
    h0_pdf,
    h1_cdf,
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
    watts_to_dbm,
)
from .mcsim import (
    ValidationCheck,
    ValidationReport,
    empirical_rates,
    is_blocked,
    simulate_received_power,
    validate_suite,
)
from .numerics import (
    BracketingError,
    DomainError,
    NumericsError,
    QuadratureError,
    Tolerance,
    erf,
    erf_inv,
    erfc_inv,
    find_root,
    integrate,
    log_gamma,
    reg_lower_gamma,
)
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
