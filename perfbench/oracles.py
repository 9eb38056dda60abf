"""Output checks for every CLI command the benchmark runs.

Each check reads the files a command wrote and returns an Outcome: how
many operations it covered, how many of them failed, and why.  An
operation is one command, one regime-map point or one gated validate
check.  Columns are looked up by name, so columns appended to an output
later do not disturb the checks.

Regime-map tolerances against the reference (relative, per column):

* ``p_b`` 1e-6.  No planned change moves the blockage probability; the
  closed form for E[S] agrees with the quadrature to 3e-11, so a broken
  closed form shows here long before 1e-6.
* ``mean_y_w``, ``lambda``, ``p_d`` 5e-3.  The conditioned exclusion law
  (ROADMAP item 2) is meant to raise ``mean_y_w`` by about 0.25% at the
  shipped eps_min, which moves ``lambda`` by about half that and ``p_d``
  by less; 5e-3 admits that shift with a factor two to spare and still
  rejects any error in a closed form of the spectral or pathloss moments
  larger than 0.5%.
* ``eta_prime_w`` 1e-9: it depends only on the noise law and beta_th.
* ``lrt_area`` is compared in log10 within 0.5 decades: it grows like
  exp(y_max / (2 sigma2)) with y_max proportional to 1/lambda, so the
  0.25% shift of item 2 moves it by 0.10 to 0.17 decades at the shipped
  config, while a broken area formula moves it by many decades.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

REGIME_COLUMNS = ("rho", "n", "v0_m", "p_b", "mean_y_w", "lambda", "eta_prime_w",
                  "p_d", "lrt_area", "verdict", "error")
RELATIVE_TOL = {"p_b": 1e-6, "mean_y_w": 5e-3, "lambda": 5e-3, "p_d": 5e-3,
                "eta_prime_w": 1e-9}
LRT_AREA_DECADES = 0.5
VERDICTS = ("interference_limited", "noise_limited")
# standard errors the simulated mean may stray from the analytic mean
SIM_MEAN_SE = 4.0


@dataclass
class Outcome:
    ops: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(message)

    def merge(self, other: "Outcome") -> None:
        self.ops += other.ops
        self.failed += other.failed
        self.problems.extend(other.problems)


def read_csv(path) -> list[dict]:
    """Rows of a CLI CSV, skipping its '# key: value' provenance header."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _num(value):
    return float(value) if value not in (None, "") else None


def _key(rho, n, v0):
    return (float(rho), int(n), float(v0))


def _close(value, ref, rel) -> bool:
    if value is None or ref is None:
        return value is None and ref is None
    return abs(value - ref) <= rel * max(abs(ref), 1e-300)


def check_regime_map(rows, sweeps, reference_rows) -> Outcome:
    """One op per (rho, N, v0) point plus one for the command itself.

    A point fails when it is missing or repeated, has the verdict
    ``error``, a probability outside [0, 1], a verdict that contradicts
    its p_d, or a numeric column off the reference.  An InfeasibleFitError
    row (noise_limited with empty lambda/p_d) is a valid verdict.
    """
    expected = [_key(r, n, v) for r in sweeps["rho_list"] for n in sweeps["n_list"]
                for v in sweeps["v0_grid_m"]]
    out = Outcome(ops=1 + len(expected))
    if rows and any(col not in rows[0] for col in REGIME_COLUMNS):
        missing = [c for c in REGIME_COLUMNS if c not in rows[0]]
        out.fail(f"regime-map: missing columns {missing}", ops=len(expected) + 1)
        return out
    reference = {_key(r["rho"], r["n"], r["v0_m"]): r for r in reference_rows}
    seen: dict = {}
    for row in rows:
        seen.setdefault(_key(row["rho"], row["n"], row["v0_m"]), []).append(row)
    bad_points = 0
    for key in expected:
        got = seen.get(key, [])
        why = _point_problem(got, reference.get(key))
        if why:
            bad_points += 1
            out.problems.append(f"regime-map point {key}: {why}")
    extra = set(seen) - set(expected)
    if extra:
        out.problems.append(f"regime-map: unexpected points {sorted(extra)}")
    out.failed += bad_points + (1 if bad_points or extra else 0)
    return out


def _point_problem(got, ref):
    if not got:
        return "missing row"
    if len(got) > 1:
        return f"{len(got)} rows"
    row = got[0]
    verdict = row["verdict"]
    if verdict not in VERDICTS:
        return f"verdict {verdict!r} ({row['error']})"
    p_b, p_d = _num(row["p_b"]), _num(row["p_d"])
    for name, p in (("p_b", p_b), ("p_d", p_d)):
        if p is not None and not 0.0 <= p <= 1.0:
            return f"{name} = {p} outside [0, 1]"
    if p_d is not None and (verdict == "interference_limited") != (p_d > 0.5):
        return f"verdict {verdict} contradicts p_d = {p_d}"
    if ref is None:
        return "no reference row"
    if verdict != ref["verdict"]:
        return f"verdict {verdict} != reference {ref['verdict']}"
    for col, rel in RELATIVE_TOL.items():
        if not _close(_num(row[col]), _num(ref[col]), rel):
            return f"{col} = {row[col]} vs reference {ref[col]} (rel tol {rel:g})"
    area, ref_area = _num(row["lrt_area"]), _num(ref["lrt_area"])
    if (area is None) != (ref_area is None):
        return f"lrt_area = {row['lrt_area']!r} vs reference {ref['lrt_area']!r}"
    if area is not None and not (
        area > 0.0 and abs(math.log10(area) - math.log10(ref_area)) <= LRT_AREA_DECADES
    ):
        return f"lrt_area = {area} vs reference {ref_area} (> {LRT_AREA_DECADES} decades)"
    return None


def check_roc(rows, sweeps) -> Outcome:
    """One op: p_f == beta on every row, p_d in [0, 1] and non-decreasing in beta."""
    out = Outcome(ops=1)
    want = sorted((int(n), float(b)) for n in sweeps["n_list"] for b in sweeps["beta_grid"])
    got = sorted((int(r["n"]), float(r["beta"])) for r in rows)
    if got != want:
        out.fail(f"roc: rows {len(got)} do not cover n_list x beta_grid ({len(want)})")
        return out
    by_n: dict = {}
    for r in rows:
        beta, p_f, p_d = float(r["beta"]), float(r["p_f"]), float(r["p_d"])
        if p_f != beta:
            out.fail(f"roc: p_f {p_f!r} != beta {beta!r}")
            return out
        if not 0.0 <= p_d <= 1.0:
            out.fail(f"roc: p_d {p_d} outside [0, 1]")
            return out
        by_n.setdefault(int(r["n"]), []).append((beta, p_d))
    for n, pts in by_n.items():
        pts.sort()
        if any(b[1] < a[1] for a, b in zip(pts, pts[1:])):
            out.fail(f"roc: p_d not monotone in beta for n = {n}")
            return out
    return out


def check_blockage(document, ref_p_b) -> Outcome:
    """One op: p_b in [0, 1] and equal to the reference regime-map p_b."""
    out = Outcome(ops=1)
    p_b = document["blockage"]["p_b"]
    if not 0.0 <= p_b <= 1.0 or not _close(p_b, ref_p_b, RELATIVE_TOL["p_b"]):
        out.fail(f"blockage: p_b {p_b} vs reference {ref_p_b}")
    return out


def check_simulate(rows, trials, phi, analytic_mean=None) -> Outcome:
    """One op: one finite sample >= phi per trial; with analytic_mean, the
    sample mean within SIM_MEAN_SE standard errors of it."""
    out = Outcome(ops=1)
    ys = [float(r["y_watts"]) for r in rows]
    if len(ys) != trials or [int(r["trial"]) for r in rows] != list(range(trials)):
        out.fail(f"simulate: {len(ys)} rows for {trials} trials")
        return out
    if not all(math.isfinite(y) and y >= phi for y in ys):
        out.fail("simulate: a sample is non-finite or below phi")
        return out
    if analytic_mean is not None:
        mean = math.fsum(ys) / trials
        var = math.fsum((y - mean) ** 2 for y in ys) / (trials - 1)
        se = math.sqrt(var / trials)
        if abs(mean - analytic_mean) > SIM_MEAN_SE * se:
            out.fail(f"simulate: mean {mean} is {abs(mean - analytic_mean) / se:.1f} "
                     f"standard errors from the analytic {analytic_mean}")
    return out


def check_validate(document, rc, required_checks) -> Outcome:
    """One op for the command plus one per gated check (tolerance set).

    Every gated check must pass and every check the reference names must be
    present; checks appended later are gated the same way.
    """
    checks = document.get("checks", [])
    gated = [c for c in checks if c.get("tolerance") is not None]
    out = Outcome(ops=1 + max(len(gated), len(required_checks)))
    names = {c["name"] for c in checks}
    missing = [n for n in required_checks if n not in names]
    failed = [c["name"] for c in gated if not c.get("passed")]
    if missing:
        out.problems.append(f"validate: missing checks {missing}")
    if failed:
        out.problems.append(f"validate: failed checks {failed}")
    if rc != 0:
        out.problems.append(f"validate: exit code {rc}")
    bad = len(missing) + len(failed)
    out.failed += bad + (1 if bad or rc != 0 else 0)
    return out


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
