"""Experiment configuration: JSON schema, unit handling, defaults.

A run is described by one versioned JSON file.  Power quantities must name
their unit in the field itself (q_dbm vs q_watts; exactly one of the pair).
Fields the underlying literature leaves open get defaults here, and every
defaulted field is recorded so output files can echo the list.

load_config is the only code that knows the schema: as it reads each field
it records the converted value or default in RunConfig.resolved, the echo
that config_hash digests.  Powers are echoed in watts; spectral is echoed
from the built model, whose absent parts default from the band.  The echo
is itself a complete config that loads back to itself with nothing defaulted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .blockage import BLOCKING_MODES, COMBINE_MODES, BlockageConfig, GeometryConfig
from .detector import FIT_MODES, NoiseConfig, thermal_noise_power
from .interference import ChannelConfig, dbm_to_watts
from .numerics import DomainError
from .spectral import BandConfig, GaussianPsd, RaisedCosineFilter, RectangularPsd, SpectralModel

# CPython's built-in SHA-256 gives hashlib's digest without loading OpenSSL
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "RunConfig",
    "load_config",
    "config_hash",
]

SCHEMA_VERSION = 2

_DEFAULT_BETA_GRID = (1e-300, 1e-12, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5,
                      0.7, 0.9, 0.99, 1.0)


class ConfigError(Exception):
    """A configuration file violates the schema or a component invariant."""


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved experiment description."""

    geo: GeometryConfig
    band: BandConfig
    spectral: SpectralModel
    channel: ChannelConfig
    noise: NoiseConfig
    blockage: BlockageConfig
    v0_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    rho_list: tuple[float, ...]
    n_list: tuple[int, ...]
    beta_th: float
    fit_mode: str
    blocking: str
    trials: int
    seed: int
    defaulted: tuple[str, ...]
    resolved: dict


class _Section:
    """Typed accessor over one JSON object with field-precise errors."""

    def __init__(self, data: dict, path: str, defaulted: list[str]):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
        self._data = dict(data)
        self._path = path
        self._seen: set[str] = set()
        self._defaulted = defaulted
        self.resolved: dict = {}

    def _name(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def require(self, key: str, kind, constraint=None, describe: str = ""):
        if key not in self._data:
            raise ConfigError(f"{self._name(key)}: required field is missing")
        return self.keep(key, self._convert(key, self._data[key], kind, constraint, describe))

    def optional(self, key: str, kind, default, constraint=None, describe: str = ""):
        if key not in self._data:
            self._defaulted.append(self._name(key))
            return self.keep(key, default)
        return self.keep(key, self._convert(key, self._data[key], kind, constraint, describe))

    def keep(self, key: str, value):
        """Record value as the echo of key and return it."""
        self.resolved[key] = value
        return value

    def _convert(self, key, value, kind, constraint, describe):
        self._seen.add(key)
        try:
            if kind is float:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError
                value = float(value)
            elif kind is int:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise TypeError
            elif kind is str:
                if not isinstance(value, str):
                    raise TypeError
            elif kind is list:
                if not isinstance(value, list):
                    raise TypeError
        except TypeError:
            raise ConfigError(
                f"{self._name(key)}: value {value!r} must be of type {kind.__name__}"
            ) from None
        if constraint is not None and not constraint(value):
            raise ConfigError(
                f"{self._name(key)}: value {value!r} violates constraint: {describe}"
            )
        return value

    def subsection(self, key: str, optional: bool = False,
                   absent_empty: bool = False) -> Optional["_Section"]:
        """The named subsection.  An absent optional one is None and is
        listed as defaulted by its name, or with absent_empty an empty
        section whose fields all take their defaults."""
        if key in self._data:
            self._seen.add(key)
        elif optional:
            self._defaulted.append(self._name(key))
            return None
        elif not absent_empty:
            raise ConfigError(f"{self._name(key)}: required section is missing")
        child = _Section(self._data.get(key, {}), self._name(key), self._defaulted)
        self.resolved[key] = child.resolved
        return child

    def power_watts(self, base: str, default: Optional[float] = None) -> float:
        """Read a power given as <base>_dbm or <base>_watts (exactly one)."""
        dbm_key, watt_key = f"{base}_dbm", f"{base}_watts"
        has_dbm, has_watt = dbm_key in self._data, watt_key in self._data
        if has_dbm and has_watt:
            raise ConfigError(
                f"{self._name(dbm_key)} / {self._name(watt_key)}: "
                "exactly one unit variant may be given, found both"
            )
        if has_dbm:
            dbm = self._convert(dbm_key, self._data[dbm_key], float, _finite_dbm, _POWER_RULE)
            return self.keep(watt_key, dbm_to_watts(dbm))
        if not has_watt and default is None:
            raise ConfigError(
                f"{self._name(watt_key)}: required power is missing "
                f"(provide {dbm_key} or {watt_key})"
            )
        return self.optional(watt_key, float, default, _finite_power, _POWER_RULE)

    def reject_unknown(self):
        unknown = set(self._data) - self._seen
        if unknown:
            name = sorted(unknown)[0]
            raise ConfigError(f"{self._name(name)}: unknown field")


def _positive(v) -> bool:
    return v > 0


# the one range rule of a power, whichever unit the file gives it in
_POWER_RULE = "finite and >= 0 watts"


def _finite_power(watts: float) -> bool:
    return 0.0 <= watts < math.inf


def _finite_dbm(dbm: float) -> bool:
    try:
        return _finite_power(dbm_to_watts(dbm))
    except OverflowError:  # 10 ** x past the largest double
        return False


def load_config(path, seed: Optional[int] = None,
                trials: Optional[int] = None) -> RunConfig:
    """Parse, validate and resolve a run configuration file.

    Component invariants are enforced by the component types themselves;
    schema errors name the offending field, its value and the violated
    constraint.  Fields with documented defaults are filled in and listed
    in RunConfig.defaulted.  A seed or trials given here replaces the
    file's field and is checked by the same rule.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc

    defaulted: list[str] = []
    root = _Section(raw, "", defaulted)
    root._data.update(
        (key, value) for key, value in (("seed", seed), ("trials", trials)) if value is not None
    )
    root.optional("schema_version", int, SCHEMA_VERSION, lambda v: v == SCHEMA_VERSION,
                  f"this build reads version {SCHEMA_VERSION}")

    try:
        geo_sec = root.subsection("geometry")
        radius = geo_sec.require("radius_m", float, _positive, "> 0")
        v0 = geo_sec.require("v0_norm_m", float, lambda v: v >= 0.0, ">= 0")
        theta_deg = geo_sec.require(
            "beam_halfwidth_deg", float, lambda v: 0.0 < v < 90.0, "in (0, 90)"
        )
        eps_min = geo_sec.optional("eps_min_m", float, 0.1, _positive, "> 0")
        geo_sec.reject_unknown()
        geo = GeometryConfig(
            radius=radius, v0_norm=v0, theta=math.radians(theta_deg), eps_min=eps_min
        )

        blk_sec = root.subsection("blockage")
        blockage = BlockageConfig(
            rho=blk_sec.require("rho_per_m2", float, lambda v: v >= 0.0, ">= 0"),
            d_s=blk_sec.require("d_s_m", float, _positive, "> 0"),
            d_e=blk_sec.require("d_e_m", float, _positive, "> 0"),
            mode=blk_sec.optional(
                "mode", str, "length_weighted", lambda v: v in COMBINE_MODES,
                f"one of {', '.join(COMBINE_MODES)}",
            ),
        )
        blk_sec.reject_unknown()

        band_sec = root.subsection("band")
        f_s = band_sec.require("f_s_hz", float, _positive, "> 0")
        f_e = band_sec.require("f_e_hz", float, _positive, "> 0")
        f_0 = band_sec.require("f_0_hz", float, _positive, "> 0")
        bandwidth = band_sec.optional("filter_bandwidth_hz", float, 1e8, _positive, "> 0")
        band_sec.reject_unknown()
        band = BandConfig(f_s=f_s, f_e=f_e, f_0=f_0, bandwidth=bandwidth)

        psd = GaussianPsd(std=bandwidth / 4.0)
        filt = RaisedCosineFilter(rolloff=0.0, width=bandwidth)
        spec_sec = root.subsection("spectral", optional=True)
        if spec_sec is not None:
            psd_sec = spec_sec.subsection("psd", optional=True)
            if psd_sec is not None:
                shape = psd_sec.require(
                    "shape", str, lambda v: v in ("gaussian", "rectangular"),
                    "one of gaussian, rectangular",
                )
                if shape == "gaussian":
                    psd = GaussianPsd(
                        std=psd_sec.optional("std_hz", float, psd.std, _positive, "> 0")
                    )
                else:
                    psd = RectangularPsd(
                        width=psd_sec.require("width_hz", float, _positive, "> 0")
                    )
                psd_sec.reject_unknown()
            filt_sec = spec_sec.subsection("filter", optional=True)
            if filt_sec is not None:
                filt_sec.require(
                    "shape", str, lambda v: v == "raised_cosine", "raised_cosine"
                )
                filt = RaisedCosineFilter(
                    rolloff=filt_sec.optional(
                        "rolloff", float, filt.rolloff, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"
                    ),
                    width=filt_sec.optional("width_hz", float, filt.width, _positive, "> 0"),
                )
                filt_sec.reject_unknown()
            spec_sec.reject_unknown()
        model = SpectralModel(psd=psd, filter=filt)
        root.resolved["spectral"] = {
            "psd": {"shape": "gaussian", "std_hz": psd.std} if isinstance(psd, GaussianPsd)
            else {"shape": "rectangular", "width_hz": psd.width},
            "filter": {"shape": "raised_cosine", "rolloff": filt.rolloff, "width_hz": filt.width},
        }

        chan_sec = root.subsection("channel")
        channel = ChannelConfig(
            alpha=chan_sec.require("alpha", float, _positive, "> 0"),
            m=chan_sec.require("m", float, lambda v: v >= 0.5, ">= 0.5"),
            q=chan_sec.power_watts("q"),
            n=chan_sec.require("n_interferers", int, lambda v: v >= 0, ">= 0"),
            p=chan_sec.require(
                "occupancy", float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"
            ),
        )
        chan_sec.reject_unknown()

        # an absent noise, detection or simulation section reads as an empty
        # one, which reports each defaulted field by name
        noise_sec = root.subsection("noise", absent_empty=True)
        noise = NoiseConfig(
            sigma2=noise_sec.power_watts("sigma2", default=thermal_noise_power(bandwidth)),
            phi=noise_sec.power_watts("phi", default=0.0),
        )
        noise_sec.reject_unknown()

        det_sec = root.subsection("detection", absent_empty=True)
        beta_th = det_sec.optional(
            "beta_th", float, 0.05, lambda v: 0.0 < v <= 1.0, "in (0, 1]"
        )
        fit_mode = det_sec.optional(
            "fit_mode", str, "transcendental",
            lambda v: v in FIT_MODES, f"one of {FIT_MODES}",
        )
        det_sec.reject_unknown()

        sweep_sec = root.subsection("sweeps", optional=True)
        if sweep_sec is None:
            # an absent sweeps section is listed by its name alone: its
            # defaults are echoed but not listed
            sweep_sec = _Section({}, "sweeps", [])
            root.resolved["sweeps"] = sweep_sec.resolved
        v0_grid = sweep_sec.optional(
            "v0_grid_m", list, [float(v) for v in range(10) if v < geo.radius],
            bool, "a non-empty list",
        )
        beta_grid = sweep_sec.optional(
            "beta_grid", list, list(_DEFAULT_BETA_GRID), bool, "a non-empty list"
        )
        rho_list = sweep_sec.optional("rho_list", list, [blockage.rho], bool, "a non-empty list")
        n_list = sweep_sec.optional("n_list", list, [channel.n], bool, "a non-empty list")
        sweep_sec.reject_unknown()
        # each element takes the scalar fields' rule (bool and str are
        # rejected), grid by grid, and is echoed converted
        elements = (
            ("v0_grid_m", v0_grid, float, lambda v: 0.0 <= v < geo.radius, "in [0, radius)"),
            ("beta_grid", beta_grid, float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
            ("rho_list", rho_list, float, lambda v: v >= 0.0, ">= 0"),
            ("n_list", n_list, int, lambda v: v >= 0, "integer >= 0"),
        )
        v0_grid, beta_grid, rho_list, n_list = [
            tuple(sweep_sec.keep(key, [sweep_sec._convert(key, v, kind, ok, describe)
                                       for v in values]))
            for key, values, kind, ok, describe in elements
        ]

        sim_sec = root.subsection("simulation", absent_empty=True)
        blocking = sim_sec.optional(
            "blocking", str, "thinning",
            lambda v: v in BLOCKING_MODES, f"one of {BLOCKING_MODES}",
        )
        sim_sec.reject_unknown()

        trials = root.optional("trials", int, 100000, lambda v: v >= 1, ">= 1")
        seed = root.optional("seed", int, 0, lambda v: v >= 0, ">= 0")
        root.reject_unknown()
    except DomainError as exc:
        # component invariants re-raised on the config surface
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        geo=geo, band=band, spectral=model, channel=channel, noise=noise, blockage=blockage,
        v0_grid=v0_grid, beta_grid=beta_grid, rho_list=rho_list, n_list=n_list,
        beta_th=beta_th, fit_mode=fit_mode, blocking=blocking,
        trials=trials, seed=seed, defaulted=tuple(defaulted), resolved=root.resolved,
    )


def config_hash(resolved: dict) -> str:
    """Stable short hash of a resolved configuration."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()[:16]
