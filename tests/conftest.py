import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

import mmwregime as mw

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_CONFIG = REPO_ROOT / "configs" / "baseline_60ghz.json"


@pytest.fixture(scope="session")
def baseline_run():
    from mmwregime.config import load_config

    return load_config(BASELINE_CONFIG)


@pytest.fixture(scope="session")
def baseline_band():
    return mw.BandConfig(f_s=58e9, f_e=64e9, f_0=62e9, bandwidth=1e8)


@pytest.fixture(scope="session")
def baseline_model():
    return mw.SpectralModel(
        psd=mw.GaussianPsd(std=2.5e7),
        filter=mw.RaisedCosineFilter(rolloff=0.0, width=1e8),
    )


@pytest.fixture(scope="session")
def baseline_geo():
    return mw.GeometryConfig(
        radius=10.0, v0_norm=0.0, theta=math.radians(10.0), eps_min=0.5
    )


@pytest.fixture(scope="session")
def baseline_blockage():
    return mw.BlockageConfig(rho=1.0, d_s=0.2, d_e=0.8, mode="reciprocal_length")


@pytest.fixture(scope="session")
def baseline_channel():
    return mw.ChannelConfig(
        alpha=2.5, m=3.0, q=mw.dbm_to_watts(27.0), n=200, p=0.5
    )


@pytest.fixture(scope="session")
def baseline_noise():
    return mw.NoiseConfig(sigma2=5e-3, phi=1e-3)


def write_config(tmp_path, **overrides):
    """Copy the shipped defaults with section-level overrides applied."""
    raw = json.loads(BASELINE_CONFIG.read_text())
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def load_perfbench(name):
    """The benchmark's module perfbench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module
