"""Command-line front end.

Subcommands: blockage, regime-map, roc, validate, simulate.  Every command
reads one JSON config, writes plot-ready CSV or JSON under --out, and
embeds a provenance header (tool version, config hash, seed, defaulted
fields) so identical config+seed runs are byte-identical regardless of
worker count.

Exit codes: 0 success, 1 usage or config error, 2 numerical failure,
3 validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import __version__, detector, mcsim
from .blockage import blockage_probability
from .config import ConfigError, RunConfig, config_hash, load_config
from .interference import mean_received_power
from .numerics import NumericsError

__all__ = ["main", "build_parser"]

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
        "roc": "detection vs false-alarm curves per interferer count",
        "validate": "Monte-Carlo validation of every analytic quantity",
        "simulate": "dump raw simulated received-power samples",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=".", help="output directory (created if absent)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None, help="override the config trial count")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default: csv for tabular commands, json otherwise)")
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


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


def _write_csv(path: Path, header: list[str], prov: dict, body: list[str]) -> None:
    """Provenance comments, the header line, then the formatted data lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(prov.items())]
    lines.append(",".join(header))
    lines += body
    lines.append("")  # the final newline, without a second copy of the text
    path.write_text("\n".join(lines))


def _write_rows(path: Path, rows: list[dict], header: list[str], prov: dict,
                fmt: str) -> None:
    if fmt == "json":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json_text({"_provenance": prov, "rows": rows}))
        return
    body = [",".join([_fmt(row.get(col)) for col in header]) for row in rows]
    _write_csv(path, header, prov, body)


def _write_document(path: Path, document: dict, prov: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_text({"_provenance": prov, **document}))


def cmd_blockage(run: RunConfig, out: Path, fmt: str, workers: int) -> int:
    net = run.network
    result = blockage_probability(run.blockage, net.geo)
    doc = dataclasses.asdict(result)
    prov = _provenance(run)
    if fmt == "csv":
        header = list(doc.keys())
        _write_rows(out / "blockage.csv", [doc], header, prov, "csv")
    else:
        _write_document(out / "blockage.json", {"blockage": doc}, prov)
    return EXIT_OK

def cmd_regime_map(run: RunConfig, out: Path, fmt: str, workers: int) -> int:
    net = run.network
    header = ["rho", "n", "v0_m", "p_b", "mean_y_w", "lambda", "eta_prime_w",
              "p_d", "lrt_area", "verdict", "error"]
    rows = []
    for rho in run.sweeps.rho_list:
        blk = dataclasses.replace(run.blockage, rho=rho)
        for n in run.sweeps.n_list:
            chan = dataclasses.replace(net.channel, n=n)
            points = detector.regime_map(
                blk, net.geo, chan, net.band, net.spectral, net.noise,
                run.sweeps.v0_grid, run.beta_th, fit_mode=run.fit_mode,
            )
            for pt in points:
                rows.append({
                    "rho": rho, "n": n, "v0_m": pt.v0_norm, "p_b": pt.p_b,
                    "mean_y_w": pt.mean_y, "lambda": pt.lam,
                    "eta_prime_w": pt.eta_prime, "p_d": pt.p_d,
                    "lrt_area": pt.lrt_area, "verdict": pt.verdict,
                    "error": pt.error,
                })
    _write_rows(out / f"regime_map.{fmt}", rows, header, _provenance(run), fmt)
    # per-point failures are recorded in the verdict and error columns; an
    # infeasible fit is a noise_limited verdict that also fills error, so
    # only a sweep whose every verdict is "error" is a numerical failure
    if rows and all(row["verdict"] == "error" for row in rows):
        print("numerical failure: every sweep point failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_roc(run: RunConfig, out: Path, fmt: str, workers: int) -> int:
    net = run.network
    p_b = blockage_probability(run.blockage, net.geo).p_b
    rows = []
    for n in run.sweeps.n_list:
        chan = dataclasses.replace(net.channel, n=n)
        mean_y = mean_received_power(
            net.noise.phi, p_b, chan, net.geo, net.band, net.spectral
        )
        try:
            fit = detector.fit_me_lambda(mean_y, net.noise.phi, run.fit_mode)
        except detector.InfeasibleFitError:
            # no interference above the signal power, so no P_D: empty cells,
            # as regime-map writes such a point, in roc_curve's order
            curve = [(beta, None) for beta in sorted(run.sweeps.beta_grid)]
        else:
            curve = detector.roc_curve(fit, net.noise, run.sweeps.beta_grid)
        for beta, p_d in curve:
            rows.append({"n": n, "beta": beta, "p_f": beta, "p_d": p_d})
    header = ["n", "beta", "p_f", "p_d"]
    _write_rows(out / f"roc.{fmt}", rows, header, _provenance(run), fmt)
    return EXIT_OK


def cmd_validate(run: RunConfig, out: Path, fmt: str, workers: int) -> int:
    net = run.network
    report = mcsim.validate_suite(
        net.channel, net.geo, net.band, net.spectral, net.noise, run.blockage,
        trials=run.trials, seed=run.seed, workers=workers,
    )
    doc = dataclasses.asdict(report)
    prov = _provenance(run)
    if fmt == "csv":
        header = ["name", "analytic", "empirical", "tolerance", "passed", "samples", "note"]
        _write_rows(out / "validation.csv", doc["checks"], header, prov, "csv")
    else:
        _write_document(out / "validation.json", doc, prov)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_simulate(run: RunConfig, out: Path, fmt: str, workers: int) -> int:
    net = run.network
    p_b = 0.0
    if run.blocking == "thinning":
        p_b = blockage_probability(run.blockage, net.geo).p_b
    samples = mcsim.simulate_received_power(
        net.channel, net.geo, net.band, net.spectral, net.noise.phi,
        trials=run.trials, seed=run.seed, blocking=run.blocking, p_b=p_b,
        blockage_cfg=run.blockage, workers=workers,
    )
    path, header, prov = out / f"samples.{fmt}", ["trial", "y_watts"], _provenance(run)
    if fmt == "csv":
        # the lines _write_rows would format, without a dict per sample
        _write_csv(path, header, prov, [f"{i},{y!r}" for i, y in enumerate(samples.tolist())])
    else:
        rows = [{"trial": i, "y_watts": y} for i, y in enumerate(samples.tolist())]
        _write_rows(path, rows, header, prov, fmt)
    return EXIT_OK


_COMMANDS = {
    "blockage": (cmd_blockage, "json"),
    "regime-map": (cmd_regime_map, "csv"),
    "roc": (cmd_roc, "csv"),
    "validate": (cmd_validate, "json"),
    "simulate": (cmd_simulate, "csv"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    handler, default_fmt = _COMMANDS[args.command]
    fmt = args.format or default_fmt
    try:
        run = load_config(args.config, seed=args.seed, trials=args.trials)
        if args.workers < 1:
            raise ConfigError(f"--workers: value {args.workers} violates constraint: >= 1")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        return handler(run, Path(args.out), fmt, args.workers)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
