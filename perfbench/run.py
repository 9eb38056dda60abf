"""Benchmark of the mmwregime CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload analytic_sweep --seed 1 --seconds 60 --trace 0

--trace 0 runs the workload's command sequence as cold CLI processes
(``python -m mmwregime.cli ...`` with PYTHONPATH=src), back to back, for
about --seconds, between cold reference and set-up probes, checks every
output against perfbench/oracles.py and reports the end-to-end metrics.
--trace 1 runs the same commands once, in one process, through
perfbench/trace_child.py and reports the per-layer metrics.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  Lines before it describe the environment and each
command for a human reader.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from workloads import SHIPPED_CONFIG, WORKLOADS, cli_seed  # noqa: E402

REFERENCE = HERE / "reference"
MIN_PROBES = 3
END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 170.0
MB = 1024.0  # ru_maxrss is in KiB on Linux
SETUP_CODE = ("import sys\nimport mmwregime.cli as cli\n"
              "cli.load_config(sys.argv[1])\n")
# the host yardstick: a cold interpreter importing the scientific stack the
# package imports, and nothing of the package itself (see README.md)
REFERENCE_CODE = "import numpy, scipy.optimize, scipy.special, scipy.stats\n"


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


class Runner:
    """Starts the cold child processes of one benchmark run."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def child(self, argv, name) -> tuple[int, float, float]:
        """Run argv to completion; (exit code, wall seconds, maxrss MB)."""
        err_path = self.work / f"{name}.stderr"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / MB

    def probe(self, *argv) -> float:
        """Wall seconds of a cold ``python -c`` child that must exit 0."""
        rc, wall, _ = self.child([sys.executable, "-c", *argv], "probe")
        if rc != 0:
            raise RuntimeError(f"probe {argv[0]!r} failed with exit code {rc}")
        return wall

    def setup_probe(self, config: Path) -> float:
        return self.probe(SETUP_CODE, str(config))

    def reference_probe(self) -> float:
        return self.probe(REFERENCE_CODE)

    def command_argv(self, cmd, config: Path, out: Path, seed: int) -> list:
        return [sys.executable, "-m", "mmwregime.cli", cmd.name, "--config", str(config),
                "--out", str(out), "--seed", str(seed), "--workers", str(cmd.workers)]


class Checker:
    """Applies the oracle of each command to what it wrote."""

    def __init__(self, workload, config: dict):
        self.config = config
        self.sweeps = config["sweeps"]
        ref_dir = REFERENCE / workload.name
        self.regime_ref = (oracles.read_csv(ref_dir / "regime_map.csv")
                           if (ref_dir / "regime_map.csv").exists() else None)
        shipped_ref = {(float(r["rho"]), int(r["n"]), float(r["v0_m"])): r
                       for r in oracles.read_csv(REFERENCE / "analytic_sweep" / "regime_map.csv")}
        geo = config["geometry"]
        scene = (float(config["blockage"]["rho_per_m2"]),
                 int(config["channel"]["n_interferers"]), float(geo["v0_norm_m"]))
        row = shipped_ref.get(scene)
        self.scene_p_b = float(row["p_b"]) if row else None
        self.scene_mean_y = float(row["mean_y_w"]) if row else None
        self.required_checks = oracles.load_json(REFERENCE / "validate_checks.json")

    def check(self, cmd, rc: int, out: Path) -> oracles.Outcome:
        name = cmd.name
        if rc != 0 and name != "validate":
            ops = self.ops_if_failed(name)
            return oracles.Outcome(ops=ops, failed=ops, problems=[f"{name}: exit code {rc}"])
        try:
            return self._check(name, rc, out)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            ops = self.ops_if_failed(name)
            return oracles.Outcome(ops=ops, failed=ops,
                                   problems=[f"{name}: unreadable output ({exc!r})"])

    def ops_if_failed(self, name) -> int:
        if name == "regime-map":
            s = self.sweeps
            return 1 + len(s["rho_list"]) * len(s["n_list"]) * len(s["v0_grid_m"])
        if name == "validate":
            return 1 + len(self.required_checks)
        return 1

    def _check(self, name, rc, out: Path) -> oracles.Outcome:
        if name == "regime-map":
            return oracles.check_regime_map(oracles.read_csv(out / "regime_map.csv"),
                                            self.sweeps, self.regime_ref)
        if name == "roc":
            return oracles.check_roc(oracles.read_csv(out / "roc.csv"), self.sweeps)
        if name == "blockage":
            return oracles.check_blockage(oracles.load_json(out / "blockage.json"),
                                          self.scene_p_b)
        if name == "simulate":
            thinning = self.config["simulation"]["blocking"] == "thinning"
            return oracles.check_simulate(
                oracles.read_csv(out / "samples.csv"), int(self.config["trials"]),
                float(self.config["noise"]["phi_watts"]),
                self.scene_mean_y if thinning else None,
            )
        if name == "validate":
            return oracles.check_validate(oracles.load_json(out / "validation.json"), rc,
                                          self.required_checks)
        raise KeyError(name)


def run_sequence(runner, checker, workload, config_path, seed, out, refs):
    """All commands of the workload once, each after a reference probe whose
    time is appended to ``refs``; (walls by command, peak MB, Outcome)."""
    walls, peak, outcome = {}, 0.0, oracles.Outcome()
    for cmd in workload.commands:
        if out.exists():
            shutil.rmtree(out)
        refs.append(runner.reference_probe())
        argv = runner.command_argv(cmd, config_path, out, seed)
        rc, wall, rss = runner.child(argv, cmd.name)
        walls[cmd.name] = wall
        peak = max(peak, rss)
        outcome.merge(checker.check(cmd, rc, out))
    return walls, peak, outcome


def timed_run(runner, checker, workload, config_path, seed, seconds, log):
    """End-to-end metrics: whole sequences until the time is used up (at
    least one), each after one set-up probe and each command after one
    reference probe, so that the probes sample the host over the same
    stretch of time as the commands; one more reference probe closes the
    run."""
    start = time.perf_counter()
    warmup = runner.setup_probe(config_path)
    log(f"warm-up set-up probe discarded: {warmup:.3f} s "
        "(the first process after idle may pay disk-cache misses)")
    total = oracles.Outcome()
    setups, refs, seqs = [], [], []
    while True:
        setups.append(runner.setup_probe(config_path))
        walls, peak, outcome = run_sequence(runner, checker, workload, config_path, seed,
                                            runner.work / "out", refs)
        total.merge(outcome)
        seqs.append((walls, peak, outcome.failed == 0))
        log("sequence " + " ".join(f"{k}={v:.3f}s" for k, v in walls.items())
            + f" peak_rss={peak:.1f}MB failed_ops={outcome.failed}")
        for problem in outcome.problems[:10]:
            log(f"  check failed: {problem}")
        last = setups[-1] + sum(walls.values()) + refs[-1] * len(walls)
        if time.perf_counter() - start + last > seconds:
            break
    refs.append(runner.reference_probe())
    while len(refs) < MIN_PROBES:
        refs.append(runner.reference_probe())
    while len(setups) < MIN_PROBES:
        setups.append(runner.setup_probe(config_path))
    valid = [s for s in seqs if s[2]] or seqs
    per_cmd = {c.name: statistics.median(s[0][c.name] for s in valid)
               for c in workload.commands}
    for name, value in per_cmd.items():
        log(f"{name}_s: {value:.4f} s (median of {len(valid)} cold runs)")
    wall_s = statistics.median(sum(s[0].values()) for s in valid)
    ref_s = statistics.median(refs)
    log(f"wall_s: {wall_s:.4f} s (median of {len(valid)} sequences)")
    log(f"ref_s: {ref_s:.4f} s (median of reference probes "
        + " ".join(f"{x:.3f}" for x in refs) + ")")
    log(f"setup_s probes: {' '.join(f'{x:.3f}' for x in setups)}")
    values = {
        "wall_ref": wall_s / ref_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s[1] for s in valid),
    }
    metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    return metrics, total


def traced_run(runner, checker, workload, config_path, seed, log):
    """Per-layer metrics from one traced process (perfbench/trace_child.py).
    The spans are kept in perfbench/out/spans_<workload>.json."""
    outs = {"untraced": runner.work / "untraced", "traced": runner.work / "out"}
    plan = runner.work / "plan.json"
    plan.write_text(json.dumps({
        **{k: [runner.command_argv(c, config_path, d, seed)[3:] for c in workload.commands]
           for k, d in outs.items()},
        "spans_out": str(runner.work.parent / f"spans_{workload.name}.json"),
    }))
    proc = subprocess.run([sys.executable, str(HERE / "trace_child.py"), str(plan)],
                          cwd=runner.root, env=runner.env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"traced run failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    total = oracles.Outcome()
    # each command of a workload writes its own file, so the traced pass's
    # output directory holds every output to check
    for cmd, rc in zip(workload.commands, result["rc"]):
        total.merge(checker.check(cmd, rc, outs["traced"]))
    for name, site, calls, self_s, incl_s in result["top_sites"]:
        log(f"site {name} <- {site}: calls={calls} self={self_s:.3f}s incl={incl_s:.3f}s")
    names = [c.name for c in workload.commands]
    for key in ("untraced_s", "traced_s", "integrate_calls_per_command"):
        log(f"in-process {key}: " + " ".join(f"{n}={v:.6g}" for n, v in zip(names, result[key])))
    if result["point_max_s"] is not None:
        log(f"slowest regime-map point: {result['point_max_s']:.4f} s")
    units = per_layer_units()
    metrics = {k: (v, units[k]) for k, v in result["metrics"].items()}
    return metrics, total


def per_layer_units() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    shipped = root / SHIPPED_CONFIG
    if not (root / "src" / "mmwregime" / "cli.py").is_file() or not shipped.is_file():
        print(f"perfbench: run from the repository root; {root} has no "
              f"src/mmwregime or {SHIPPED_CONFIG}", file=sys.stderr)
        return 2

    def log(line):
        print(line, flush=True)

    workload = WORKLOADS[args.workload]
    seed = cli_seed(args.seed)
    env = environment()
    log("env: " + json.dumps(env, sort_keys=True))
    (root / "perfbench" / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / "perfbench" / "out") as tmp:
        work = Path(tmp)
        config = json.loads(shipped.read_text())
        config_path = shipped
        if workload.derive is not None:
            config = workload.derive(config)
            config_path = work / f"{workload.name}.json"
            config_path.write_text(json.dumps(config, indent=2))
        runner = Runner(root, work)
        checker = Checker(workload, config)
        log(f"workload {workload.name}: seed {args.seed} -> cli --seed {seed}; "
            + ", ".join(f"{c.name} --workers {c.workers}" for c in workload.commands))
        if args.trace:
            metrics, outcome = traced_run(runner, checker, workload, config_path, seed, log)
        else:
            metrics, outcome = timed_run(runner, checker, workload, config_path, seed,
                                         args.seconds, log)
    log("env at end: loadavg " + " ".join(f"{x:.2f}" for x in os.getloadavg()))
    for name, (value, unit) in metrics.items():
        log(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.ops,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
