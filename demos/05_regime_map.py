"""Where in the cell is interference the limiting factor?

Sweeps the receiver from the center to the rim, recomputing the full
chain at each spot: blockage probability, mean interference power,
maximum-entropy rate, detection probability and the LRT-area summary.
Denser obstacle fields and off-center receivers both push the verdict
toward noise-limited operation.
"""

import math
from itertools import groupby

from mmwregime import (
    BandConfig,
    BlockageConfig,
    ChannelConfig,
    GaussianPsd,
    GeometryConfig,
    NoiseConfig,
    RaisedCosineFilter,
    SpectralModel,
    dbm_to_watts,
    regime_map,
)

geo = GeometryConfig(radius=10.0, v0_norm=0.0, theta=math.radians(10.0), eps_min=0.5)
band = BandConfig(f_s=58e9, f_e=64e9, f_0=62e9, bandwidth=1e8)
model = SpectralModel(psd=GaussianPsd(std=2.5e7), filter=RaisedCosineFilter(rolloff=0.0, width=1e8))
channel = ChannelConfig(alpha=2.5, m=3.0, q=dbm_to_watts(27.0), n=200, p=0.5)
noise = NoiseConfig(sigma2=5e-3, phi=1e-3)
grid = [0.0, 2.0, 4.0, 6.0, 8.0, 9.0]
blockage = BlockageConfig(rho=1.0, d_s=0.2, d_e=0.8, mode="reciprocal_length")

rows = regime_map(blockage, geo, channel, band, model, noise, (0.5, 2.0), [channel.n], grid,
                  beta_th=0.05)
for rho, family in groupby(rows, key=lambda pt: pt["rho"]):
    print(f"obstacle density {rho}/m^2:")
    print(f"{'v0 (m)':>7} {'p_b':>7} {'E[y] mW':>9} {'rate':>7} {'P_D':>7} "
          f"{'log10 area':>11} verdict")
    for pt in family:
        print(
            f"{pt['v0_m']:7.1f} {pt['p_b']:7.4f} {pt['mean_y_w']*1e3:9.3f} "
            f"{pt['lambda']:7.3f} {pt['p_d']:7.4f} {math.log10(pt['lrt_area']):11.1f} "
            f"{pt['verdict']}"
        )
    print()

print("moving outward lowers the mean interference (longer paths), raising")
print("the fitted rate and shrinking both the detection probability and the")
print("area under the likelihood-ratio curve; denser obstacles do the same")
print("at every location.")
