"""Every input check of the library API that no other test reaches raises
DomainError with its own message."""

import math

import numpy as np
import pytest

from mmwregime import mcsim
from mmwregime.blockage import GeometryConfig
from mmwregime.detector import MeFit, detection_probability, thermal_noise_power
from mmwregime.interference import (
    ChannelConfig, aggregate_mgf, gamma_n, kappa_n, mean_received_power,
)
from mmwregime.numerics import DomainError, rule_piecewise
from mmwregime.spectral import (
    BandConfig, GaussianPsd, RaisedCosineFilter, RectangularPsd, SpectralModel, psd_value,
    upsilon,
)

GEO = GeometryConfig(radius=10.0, v0_norm=0.0, theta=math.radians(10.0), eps_min=0.5)
BAND = BandConfig(f_s=58e9, f_e=64e9, f_0=62e9, bandwidth=1e8)
FILTER = RaisedCosineFilter(rolloff=0.0, width=1e8)
MODEL = SpectralModel(psd=GaussianPsd(std=2.5e7), filter=FILTER)
CHANNEL = ChannelConfig(alpha=2.5, m=3.0, q=0.5, n=200, p=0.5)
ARGS = (CHANNEL, GEO, BAND, MODEL)


def channel(**kw):
    return ChannelConfig(**{"alpha": 2.5, "m": 3.0, "q": 0.5, "n": 200, "p": 0.5, **kw})


def simulate(**kw):
    return mcsim.simulate_received_power(*ARGS, 1e-3, **{"trials": 10, "seed": 1, **kw})


def blocked_mask_at(theta):
    xy = np.array([[1.0, 0.0]])
    frame = mcsim._cone_frame(xy, np.zeros(2), theta)
    return mcsim._blocked_mask(xy, np.array([[0.5, 0.0]]), np.array([0.1]), np.zeros(2),
                               theta, frame)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: GeometryConfig(radius=0.0, v0_norm=0.0, theta=0.1),
                 "radius must be > 0, got 0.0", id="blockage-radius"),
    pytest.param(lambda: thermal_noise_power(0.0),
                 "bandwidth must be > 0, got 0.0", id="detector-noise-bandwidth"),
    pytest.param(lambda: MeFit(lam=0.0), "lambda must be > 0, got 0.0", id="detector-lambda"),
    pytest.param(lambda: detection_probability(MeFit(lam=1.0), 1e-4, 1e-3),
                 "eta_prime must be >= phi, got 0.0001 < 0.001", id="detector-threshold"),
    pytest.param(lambda: channel(q=0.0), "q must be > 0 watts, got 0.0", id="channel-q"),
    pytest.param(lambda: channel(n=-1), "n must be >= 0, got -1", id="channel-n"),
    pytest.param(lambda: kappa_n(-1, GEO, 2.5),
                 "moment order n must be >= 0, got -1", id="kappa-order"),
    pytest.param(lambda: gamma_n(-1, BAND, MODEL),
                 "moment order n must be >= 0, got -1", id="gamma-order"),
    pytest.param(lambda: aggregate_mgf(-1.0, 1e-3, 1.5, *ARGS),
                 "p_b must be in [0, 1], got 1.5", id="aggregate-p_b"),
    pytest.param(lambda: mean_received_power(-1.0, 0.3, *ARGS),
                 "phi must be >= 0, got -1.0", id="mean-phi"),
    pytest.param(lambda: mean_received_power(1e-3, 1.5, *ARGS),
                 "p_b must be in [0, 1], got 1.5", id="mean-p_b"),
    pytest.param(lambda: blocked_mask_at(0.0),
                 "theta produces unusable tan(theta) = 0.0", id="mcsim-theta"),
    pytest.param(lambda: simulate(trials=-1), "trials must be >= 0, got -1", id="mcsim-trials"),
    pytest.param(lambda: simulate(p_b=1.5), "p_b must be in [0, 1], got 1.5", id="mcsim-p_b"),
    pytest.param(lambda: rule_piecewise([0.0]),
                 "a piecewise rule needs at least two edges", id="rule-edges"),
    pytest.param(lambda: rule_piecewise([1.0, 0.0]),
                 "edges must be non-decreasing, got 1.0 > 0.0", id="rule-order"),
    pytest.param(lambda: GaussianPsd(std=0.0),
                 "Gaussian PSD std must be > 0, got 0.0", id="gaussian-std"),
    pytest.param(lambda: RectangularPsd(width=0.0),
                 "rectangular PSD width must be > 0, got 0.0", id="rectangular-width"),
    pytest.param(lambda: RaisedCosineFilter(rolloff=1.5, width=1e8),
                 "rolloff must be in [0, 1], got 1.5", id="filter-rolloff"),
    pytest.param(lambda: RaisedCosineFilter(rolloff=0.0, width=0.0),
                 "filter width must be > 0, got 0.0", id="filter-width"),
    pytest.param(lambda: psd_value("flat", 0.0),
                 "unsupported PSD shape: 'flat'", id="psd-shape"),
    pytest.param(lambda: upsilon(0.0, BAND, SpectralModel(psd="flat", filter=FILTER)),
                 "unsupported PSD shape: 'flat'", id="overlap-shape"),
])
def test_input_check_names_its_rule(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
