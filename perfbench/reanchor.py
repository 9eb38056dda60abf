"""In-process timings of single layers, row for row as in ROADMAP's
re-anchor table, for the baseline record in perfbench/baseline/.

Run from the repository root (takes about a minute on 2 cores):

    PYTHONPATH=src python3 perfbench/reanchor.py

Every row is one cold measurement (lru caches cleared first) unless it
says warm; the host's speed varies by tens of percent from minute to
minute, so treat each row as one sample, not as a median.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import time

IMPORT_CODE = ("import time; t = time.perf_counter(); import mmwregime.cli; "
               "print(time.perf_counter() - t)")


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def main() -> int:
    def row(name, seconds):
        print(f"| {name} | {seconds * 1e3:.3f} ms |", flush=True)

    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], capture_output=True, text=True,
                         check=True)
    row("import mmwregime.cli (in a fresh interpreter)", float(out.stdout))

    from mmwregime import blockage, detector, interference, mcsim, spectral
    from mmwregime.config import load_config

    run = load_config("configs/baseline_60ghz.json")
    net = run.network

    def clear():
        for fn in (blockage._mean_distance_cached, blockage._mean_partial_blockage_cached,
                   interference._kappa_cached, interference._log_kappa_cached,
                   spectral.upsilon_table):
            fn.cache_clear()

    clear()
    row("Upsilon table build (4097 quadratures)",
        timed(spectral.upsilon_table, net.band, net.spectral))
    for v0 in (0.0, 4.0, 7.0, 8.0, 9.0):
        clear()
        geo = dataclasses.replace(net.geo, v0_norm=v0)
        row(f"E[S] cold at v0 = {v0:g} m", timed(blockage.mean_partial_blockage, run.blockage, geo))
    clear()
    row("E[ell] cold", timed(blockage.mean_distance, net.geo))
    row("kappa_1 cold", timed(interference.kappa_n, 1, net.geo, net.channel.alpha))

    p_b = blockage.blockage_probability(run.blockage, net.geo).p_b
    args = (net.noise.phi, p_b, net.channel, net.geo, net.band, net.spectral)
    interference.mean_received_power(*args)
    row("mean_received_power warm", timed(interference.mean_received_power, *args))
    mean_y = interference.mean_received_power(*args)
    row("ME fit (transcendental)", timed(detector.fit_me_lambda, mean_y, net.noise.phi))
    fit = detector.fit_me_lambda(mean_y, net.noise.phi)
    row("lrt_area", timed(detector.lrt_area, fit, net.noise))

    sweep = (run.blockage, net.geo, net.channel, net.band, net.spectral, net.noise,
             run.sweeps.v0_grid, run.beta_th)
    clear()
    row("regime_map, 10 points, cold", timed(detector.regime_map, *sweep))
    row("regime_map, 10 points, warm", timed(detector.regime_map, *sweep))

    sim = (net.channel, net.geo, net.band, net.spectral, net.noise.phi)
    for workers in (1, 2):
        row(f"simulator, thinning, 1e5 trials, {workers} worker(s)",
            timed(mcsim.simulate_received_power, *sim, trials=100_000, seed=1,
                  blocking="thinning", p_b=p_b, workers=workers))
    trials = 1000
    seconds = timed(mcsim.simulate_received_power, *sim, trials=trials, seed=1,
                    blocking="geometric", blockage_cfg=run.blockage)
    row("simulator, geometric, per trial (1000 trials, 1 worker)", seconds / trials)
    return 0


if __name__ == "__main__":
    sys.exit(main())
