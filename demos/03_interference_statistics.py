"""Moments and MGF of the aggregate interference power.

The per-interferer power q * h * ell^(-alpha) * Upsilon(omega) averages
into closed-form moments (pathloss moments kappa_n over the distance law
conditioned on the exclusion radius, overlap moments gamma_n); the mean
received power the detector consumes is built from the first of them.  The
single-interferer MGF averages the Nakagami MGF over distance and offset,
and the network MGF follows by thinning.
"""

import math

from mmwregime import (
    BandConfig,
    BlockageConfig,
    ChannelConfig,
    GaussianPsd,
    GeometryConfig,
    RaisedCosineFilter,
    SpectralModel,
    aggregate_mgf,
    blockage_probability,
    dbm_to_watts,
    gamma_n,
    interferer_power_mgf,
    kappa_n,
    mean_received_power,
    upsilon_table,
)

geo = GeometryConfig(radius=10.0, v0_norm=0.0, theta=math.radians(10.0), eps_min=0.5)
band = BandConfig(f_s=58e9, f_e=64e9, f_0=62e9, bandwidth=1e8)
model = SpectralModel(psd=GaussianPsd(std=2.5e7), filter=RaisedCosineFilter(rolloff=0.0, width=1e8))
channel = ChannelConfig(alpha=2.5, m=3.0, q=dbm_to_watts(27.0), n=200, p=0.5)
phi = 1e-3

print("pathloss moments (distance law conditioned on ell >= eps_min = 0.5 m):")
for n in (0, 1, 2, 3):
    print(f"  kappa_{n} = {kappa_n(n, geo, channel.alpha):.6g}")
print("overlap moments:")
for n in (0, 1, 2, 3):
    print(f"  gamma_{n} = {gamma_n(n, band, model):.6g} Hz")
print()

p_b = blockage_probability(BlockageConfig(rho=1.0, d_s=0.2, d_e=0.8, mode="reciprocal_length"), geo).p_b
mean_y = mean_received_power(phi, p_b, channel, geo, band, model)
print(f"blockage probability     p_b  = {p_b:.4f}")
print(f"mean received power      E[y] = {mean_y*1e3:.3f} mW  (signal {phi*1e3:.1f} mW)")
print()

ups_max = upsilon_table(band, model).peak
radius = channel.m / (channel.q * geo.eps_min ** -channel.alpha * ups_max)
print("single-interferer MGF along the negative axis; a power series in s")
print(f"converges only for |s| below ~{radius:.2f} 1/W here, the transform")
print("stays finite at every s <= 0, down to the noise scale 1/sigma2 and past it:")
for s in (-0.01, -0.1, -1.0, -2.0, -50.0, -200.0, -1e3, -1e6):
    print(f"  M_P({s:+9.3g}) = {interferer_power_mgf(s, channel, geo, band, model):.9f}")
print(f"network MGF at s=-0.1: {aggregate_mgf(-0.1, phi, p_b, channel, geo, band, model):.6f}")
