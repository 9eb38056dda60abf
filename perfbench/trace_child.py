"""Traced run: every command of a workload in one process, layer by layer.

Usage (from the repository root, with PYTHONPATH=src):

    python perfbench/trace_child.py PLAN.json

PLAN.json holds {"untraced": [argv, ...], "traced": [argv, ...],
"spans_out": path}: the same commands with a different --out.  Each argv
is passed to ``mmwregime.cli.main``.  The commands run twice, each time with
every lru cache of the package cleared before each command so that every
command starts cold, as a fresh CLI process would:

1. untraced, to time the commands as they are;
2. traced, with the public functions of each module wrapped.

The difference of the two passes is the tracing overhead.  Spans are kept
in memory and written to ``spans_out`` once, at the end.  The last line of
standard output is a JSON object with the per-layer metrics and the exit
code of every command of the traced pass.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import (  # noqa: E402
    Tracer, adopt_thread_roots, children_of, self_time, tail_rank, union_length,
)

def _first(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _geometry_key(args, kwargs):
    cfg = _first(args, kwargs, 0, "cfg")
    geo = _first(args, kwargs, 1, "geo")
    return repr((cfg.d_s, cfg.d_e, geo))


def _block_note(args, kwargs):
    return (int(_first(args, kwargs, 1, "n_trials")), str(_first(args, kwargs, 8, "blocking")))


# (module, function, note) pairs recorded as spans, one per call
SPANNED = (
    ("config", "load_config", None),
    ("spectral", "upsilon_table", None),
    ("blockage", "blockage_probability", None),
    ("blockage", "mean_partial_blockage", _geometry_key),
    ("interference", "mean_received_power", None),
    ("detector", "fit_me_lambda", None),
    ("detector", "lrt_area", None),
    ("detector", "roc_curve", None),
    ("detector", "_regime_point", None),
    ("detector", "regime_map", None),
    ("mcsim", "simulate_received_power", None),
    ("mcsim", "_power_block", _block_note),
    ("mcsim", "validate_suite", None),
)

# (module, function, by call site) for functions called too often to keep
# one span per call
AGGREGATED = (
    ("numerics", "integrate", True),
    ("numerics", "find_root", False),
    ("spectral", "upsilon", False),
    ("mcsim", "_blocked_mask", False),
)


def install_all(modules) -> Tracer:
    """A Tracer with every SPANNED and AGGREGATED function of the package
    wrapped wherever ``modules`` bind it."""
    tracer = Tracer(skip_modules={"mmwregime.numerics"})
    for mod_name, fn_name, note in SPANNED:
        original = getattr(sys.modules[f"mmwregime.{mod_name}"], fn_name)
        tracer.install(modules, original,
                       tracer.span_wrapper(f"{mod_name}.{fn_name}", original, note))
    for mod_name, fn_name, by_site in AGGREGATED:
        original = getattr(sys.modules[f"mmwregime.{mod_name}"], fn_name)
        tracer.install(modules, original,
                       tracer.aggregate_wrapper(f"{mod_name}.{fn_name}", original, by_site))
    return tracer


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mmwregime" or name.startswith("mmwregime."))]


def _cache_clearers(modules):
    seen = {}
    for mod in modules:
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                seen[id(value)] = clear
    return list(seen.values())


def _run_pass(main, commands, clearers, tracer=None):
    rcs, walls = [], []
    for i, argv in enumerate(commands):
        for clear in clearers:
            clear()
        if tracer is not None:
            tracer.request = i
        start = time.perf_counter()
        rcs.append(main(list(argv)))
        walls.append(time.perf_counter() - start)
    return rcs, walls


def layer_metrics(spans, aggregates, main_tid, untraced_s, traced_s, pass_window,
                  cpu_per_wall, per_call_cost) -> dict:
    """Per-layer metrics from the spans and aggregate tables of one traced pass."""
    spans = adopt_thread_roots(spans, main_tid)
    kids = children_of(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def selfs(name):
        return sum(self_time(s, kids.get(s.sid, ())) for s in by_name.get(name, ()))

    def agg(name, col):
        return sum(row[col] for key, row in aggregates.items() if key[0] == name)

    partial = by_name.get("blockage.mean_partial_blockage", [])
    distinct = {(s.request, s.note) for s in partial}
    repeat_share = (len(partial) - len(distinct)) / len(partial) if partial else 0.0

    points = sorted(s.duration for s in by_name.get("detector._regime_point", ()))
    tail = tail_rank(len(points))

    trials = {"thinning": [0, 0.0], "geometric": [0, 0.0]}
    for s in by_name.get("mcsim._power_block", ()):
        n_trials, blocking = s.note
        row = trials["geometric" if blocking == "geometric" else "thinning"]
        row[0] += n_trials
        row[1] += s.duration

    agg_calls = sum(row[0] for row in aggregates.values())
    roots = [(s.start, s.end) for s in spans if s.parent is None and s.tid == main_tid]
    return {
        "config.load_s": total("config.load_config"),
        "spectral.upsilon_table_s": total("spectral.upsilon_table"),
        "spectral.upsilon_calls": agg("spectral.upsilon", 0),
        "blockage.mean_partial_s": total("blockage.mean_partial_blockage"),
        "blockage.mean_partial_calls": len(partial),
        "blockage.geometry_repeat_share": repeat_share,
        "interference.mean_received_power_s": total("interference.mean_received_power"),
        "detector.fit_s": total("detector.fit_me_lambda"),
        "detector.lrt_area_s": total("detector.lrt_area"),
        "detector.roc_s": total("detector.roc_curve"),
        "detector.point_p50_s": statistics.median(points) if points else 0.0,
        "detector.point_tail_s": points[tail[0]] if tail else 0.0,
        "detector.point_tail_pct": tail[1] if tail else 0.0,
        "detector.point_samples": len(points),
        "numerics.integrate_calls": agg("numerics.integrate", 0),
        "numerics.integrate_self_s": agg("numerics.integrate", 1),
        "numerics.find_root_calls": agg("numerics.find_root", 0),
        "mcsim.simulate_s": total("mcsim.simulate_received_power"),
        "mcsim.trial_us_thinning": (1e6 * trials["thinning"][1] / trials["thinning"][0]
                                    if trials["thinning"][0] else 0.0),
        "mcsim.trial_us_geometric": (1e6 * trials["geometric"][1] / trials["geometric"][0]
                                     if trials["geometric"][0] else 0.0),
        "mcsim.blocked_mask_s": agg("mcsim._blocked_mask", 2),
        "mcsim.validate_self_s": selfs("mcsim.validate_suite"),
        "proc.cpu_per_wall": cpu_per_wall,
        "cli.self_s": selfs("cli.main"),
        "trace.overhead_s": sum(traced_s) - sum(untraced_s),
        "trace.overhead_est_s": len(spans) * per_call_cost[0]
        + agg_calls * per_call_cost[1],
        "trace.unattributed_s": (pass_window[1] - pass_window[0])
        - union_length(roots, *pass_window),
    }


def wrapper_cost(repeat: int = 5, calls: int = 20000) -> tuple[float, float]:
    """Seconds a span wrapper and an aggregate wrapper add to one call
    (median of ``repeat`` timings of ``calls`` calls of a no-op)."""
    probe = Tracer()

    def noop():
        return None

    def per_call(fn):
        runs = []
        for _ in range(repeat):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            runs.append((time.perf_counter() - start) / calls)
        return statistics.median(runs)

    base = per_call(noop)
    return (per_call(probe.span_wrapper("probe", noop)) - base,
            per_call(probe.aggregate_wrapper("probe", noop, by_site=True)) - base)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)

    import mmwregime.cli as cli

    modules = package_modules()
    clearers = _cache_clearers(modules)

    wall0, cpu0 = time.perf_counter(), _cpu_s()
    _, untraced_s = _run_pass(cli.main, plan["untraced"], clearers)
    cpu_per_wall = (_cpu_s() - cpu0) / (time.perf_counter() - wall0)

    tracer = install_all(modules)
    traced_main = tracer.span_wrapper("cli.main", cli.main)

    start = time.perf_counter()
    rcs, traced_s = _run_pass(traced_main, plan["traced"], clearers, tracer)
    window = (start, time.perf_counter())
    tracer.uninstall()

    aggregates = tracer.aggregates()
    metrics = layer_metrics(tracer.spans, aggregates, threading.get_ident(),
                            untraced_s, traced_s, window, cpu_per_wall, wrapper_cost())
    by_site: dict = {}
    per_request = [0] * len(plan["traced"])
    for (name, site, request), row in aggregates.items():
        merged = by_site.setdefault((name, site), [0, 0.0, 0.0])
        for i, value in enumerate(row):
            merged[i] += value
        if name == "numerics.integrate":
            per_request[request] += row[0]
    sites = sorted(([name, site, *row] for (name, site), row in by_site.items()),
                   key=lambda item: -item[3])
    with open(plan["spans_out"], "w") as fh:
        json.dump({
            "spans": [list(s) for s in tracer.spans],
            "aggregates": [[*key, *row] for key, row in aggregates.items()],
            "untraced_s": untraced_s,
            "traced_s": traced_s,
        }, fh)
    points = sorted(s.duration for s in tracer.spans if s.name == "detector._regime_point")
    print(json.dumps({
        "rc": rcs,
        "metrics": metrics,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "integrate_calls_per_command": per_request,
        "point_max_s": points[-1] if points else None,
        "top_sites": sites[:8],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
