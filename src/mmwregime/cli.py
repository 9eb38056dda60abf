"""Command-line front end.

Subcommands: blockage, regime-map, roc, validate, simulate.  Every command
reads one JSON config, writes one plot-ready file under --out
(blockage.json, regime_map.csv, roc.csv, validation.json or samples.csv)
and embeds a provenance header (tool version, config hash, seed, defaulted
fields) so identical config+seed runs are byte-identical regardless of
worker count.

Exit codes: 0 success, 1 usage, config or output error, 2 numerical
failure, 3 validation failure.

``main`` is the command itself and leaves the interpreter as it found it;
``entry`` is what a process runs (the ``mmwregime`` script and
``python -m mmwregime.cli``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import sys
from pathlib import Path
from typing import Iterable

from . import __version__, detector, mcsim
from .blockage import blockage_probability
from .config import ConfigError, RunConfig, config_hash, load_config
from .numerics import NumericsError

__all__ = ["main", "entry", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VALIDATION = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mmwregime",
        description="Noise- vs interference-limited regime analysis for finite mmWave networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "blockage": "analytic blockage probability and its ingredients",
        "regime-map": "detection-chain sweep over receiver locations per (rho, N) family",
        "roc": "detection vs false-alarm curves per interferer count: the regime-map chain "
               "at the config's (rho, v0) for each N, its fitted rate expanded over beta_grid",
        "validate": "Monte-Carlo validation of every analytic quantity; its cone-shadow "
                    "blockage check draws min(trials, 2000) scenes of Poisson(rho*pi*R^2) "
                    "obstacles, so its time grows with rho*R^2 (about 10 s at "
                    "rho = 500 m^-2, R = 10 m and 50 trials)",
        "simulate": "dump raw simulated received-power samples",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=".", help="output directory (created if absent)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None, help="override the config trial count")
        p.add_argument("--workers", type=int, default=1,
                       help="trial-block threads for simulate and validate's mean-power "
                            "check (results identical for any count)")
    return parser


def _provenance(run: RunConfig) -> dict:
    return {
        "tool": "mmwregime",
        "version": __version__,
        "config_sha256": config_hash(run.resolved),
        "seed": run.seed,
        "trials": run.trials,
        "defaulted_fields": list(run.defaulted),
    }


def _finite(value):
    # standard JSON has no inf or nan: write the strings the CSV uses
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _json_text(payload: dict) -> str:
    return json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_csv(path: Path, header: tuple[str, ...], prov: dict, body: Iterable[str]) -> None:
    """Provenance comments, the header line, then the formatted data lines,
    written as body yields them."""
    with path.open("w") as f:
        f.writelines(f"# {k}: {json.dumps(v, sort_keys=True)}\n" for k, v in sorted(prov.items()))
        f.write(",".join(header) + "\n")
        f.writelines(f"{line}\n" for line in body)


def _cell(value) -> str:
    if value is None:
        return ""
    text = repr(value) if isinstance(value, float) else str(value)
    # RFC 4180, quoted only where needed: a failed row's error text may hold a comma
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_rows(path: Path, rows: list[dict], header: tuple[str, ...], prov: dict) -> None:
    body = [",".join([_cell(row.get(col)) for col in header]) for row in rows]
    _write_csv(path, header, prov, body)


def _write_document(path: Path, document: dict, prov: dict) -> None:
    path.write_text(_json_text({"_provenance": prov, **document}))


def cmd_blockage(run: RunConfig, out: Path, workers: int) -> int:
    doc = dataclasses.asdict(blockage_probability(run.blockage, run.geo))
    _write_document(out / "blockage.json", {"blockage": doc}, _provenance(run))
    return EXIT_OK


def cmd_regime_map(run: RunConfig, out: Path, workers: int) -> int:
    rows = detector.regime_map(
        run.blockage, run.geo, run.channel, run.band, run.spectral, run.noise,
        run.rho_list, run.n_list, run.v0_grid, run.beta_th, fit_mode=run.fit_mode,
    )
    _write_rows(out / "regime_map.csv", rows, detector.REGIME_COLUMNS, _provenance(run))
    # per-point failures are recorded in the verdict and error columns; an
    # infeasible fit is a noise_limited verdict that also fills error, so
    # only a sweep whose every verdict is "error" is a numerical failure
    if rows and all(row["verdict"] == "error" for row in rows):
        print(f"numerical failure: every sweep point failed: {rows[0]['error']}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_roc(run: RunConfig, out: Path, workers: int) -> int:
    points = detector.regime_map(
        run.blockage, run.geo, run.channel, run.band, run.spectral, run.noise,
        [run.blockage.rho], run.n_list, [run.geo.v0_norm], run.beta_th, fit_mode=run.fit_mode,
    )
    rows = []
    for point in points:
        if point["verdict"] == "error":
            print(f"numerical failure: {point['error']}", file=sys.stderr)
            return EXIT_NUMERICAL
        if point["lambda"] is None:
            # no interference above the signal power, so no P_D: empty cells,
            # as regime-map writes such a point, in roc_curve's order
            curve = [(beta, None) for beta in sorted(run.beta_grid)]
        else:
            curve = detector.roc_curve(detector.MeFit(point["lambda"]), run.noise, run.beta_grid)
        rows += [{"n": point["n"], "beta": beta, "p_f": beta, "p_d": p_d} for beta, p_d in curve]
    _write_rows(out / "roc.csv", rows, ("n", "beta", "p_f", "p_d"), _provenance(run))
    return EXIT_OK


def cmd_validate(run: RunConfig, out: Path, workers: int) -> int:
    report = mcsim.validate_suite(
        run.channel, run.geo, run.band, run.spectral, run.noise, run.blockage,
        trials=run.trials, seed=run.seed, workers=workers,
    )
    _write_document(out / "validation.json", dataclasses.asdict(report), _provenance(run))
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_simulate(run: RunConfig, out: Path, workers: int) -> int:
    p_b = 0.0
    if run.blocking == "thinning":
        p_b = blockage_probability(run.blockage, run.geo).p_b
    samples = mcsim.simulate_received_power(
        run.channel, run.geo, run.band, run.spectral, run.noise.phi,
        trials=run.trials, seed=run.seed, blocking=run.blocking, p_b=p_b,
        blockage_cfg=run.blockage, workers=workers,
    )
    # the lines _write_rows would format, streamed: no dict per sample and no list of lines
    _write_csv(out / "samples.csv", ("trial", "y_watts"), _provenance(run),
               (f"{i},{y!r}" for i, y in enumerate(samples.tolist())))
    return EXIT_OK


_COMMANDS = {
    "blockage": cmd_blockage,
    "regime-map": cmd_regime_map,
    "roc": cmd_roc,
    "validate": cmd_validate,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        run = load_config(args.config, seed=args.seed, trials=args.trials)
        if args.workers < 1:
            raise ConfigError(f"--workers: value {args.workers} violates constraint: >= 1")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out = Path(args.out)
    try:
        # before the command runs, so that an unusable --out costs no computation
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](run, out, args.workers)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # the directory or the output file cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> int:
    """``main`` on the process's arguments, then ``gc.freeze()``: the
    interpreter's shutdown collections skip the frozen objects (mostly
    numpy's), which the OS reclaims with the process anyway.  Exit handlers,
    the stdio flush and tracebacks keep their normal path."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
