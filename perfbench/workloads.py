"""The benchmark's workloads: which CLI commands run, on which config.

Every workload is a closed loop with one client: the commands run back to
back as cold ``python -m mmwregime.cli`` processes, each one after the
previous has exited.  ``--workers`` never exceeds 2, the core count of the
machine the benchmark was sized on.  See perfbench/README.md for why each
workload exists and which layer it is meant to expose.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Optional

SHIPPED_CONFIG = "configs/baseline_60ghz.json"

# Seeds handed to the CLI's --seed.  The workload seed picks one of them, so
# the same workload seed always gives the same inputs.  They are the first
# sixteen of 20260810 + k (k = 0, 1, ...) for which every gated validate
# check passes at commit 3cea95c.  Three of those checks are goodness-of-fit
# tests at the 1% level, so a few seeds in a hundred fail one by chance, with
# no defect behind it: of k = 0..19 only 20260822 did (frequency_offset_density,
# p = 0.0050), and it is left out.
SIM_SEEDS = (
    20260810, 20260811, 20260812, 20260813, 20260814, 20260815, 20260816, 20260817,
    20260818, 20260819, 20260820, 20260821, 20260823, 20260824, 20260825, 20260826,
)


@dataclass(frozen=True)
class Command:
    name: str
    workers: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    derive: Optional[Callable[[dict], dict]] = None


def tapered_config(shipped: dict) -> dict:
    """The shipped scene through a raised-cosine filter (rolloff 0.25),
    simulated with cone-shadow (geometric) blocking, one (rho, N) family
    and distinct receiver offsets, so no E[S] geometry repeats."""
    cfg = copy.deepcopy(shipped)
    cfg["spectral"]["filter"]["rolloff"] = 0.25
    cfg["simulation"]["blocking"] = "geometric"
    cfg["blockage"]["rho_per_m2"] = 1.0
    cfg["channel"]["n_interferers"] = 100
    cfg["geometry"]["v0_norm_m"] = 2.5
    cfg["sweeps"]["rho_list"] = [1.0]
    cfg["sweeps"]["n_list"] = [100]
    cfg["sweeps"]["v0_grid_m"] = [0.5, 2.5, 4.5, 6.5]
    # two trial blocks of mcsim.TRIAL_BLOCK (4096 + 2048), one per worker thread
    cfg["trials"] = 6144
    return cfg


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "analytic_sweep",
            (Command("blockage"), Command("roc"), Command("regime-map")),
        ),
        Workload(
            "mc_oracle",
            (Command("simulate", 2), Command("validate", 2)),
        ),
        Workload(
            "tapered_geometric",
            (Command("regime-map", 2), Command("simulate", 2)),
            tapered_config,
        ),
    )
}


def cli_seed(workload_seed: int) -> int:
    return SIM_SEEDS[workload_seed % len(SIM_SEEDS)]
