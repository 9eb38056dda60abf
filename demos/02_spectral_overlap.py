"""How much interferer power leaks through the receive filter?

An interferer parked omega Hz away from the receiver contributes only the
part of its spectrum the matched filter captures.  This demo prints the
capture fraction versus offset and the density of offsets induced by
uniform carrier placement in the band, then saves a plot when matplotlib
is available.
"""

import numpy as np

from mmwregime import (
    BandConfig,
    GaussianPsd,
    RaisedCosineFilter,
    SpectralModel,
    frequency_offset_pdf,
    upsilon,
)

band = BandConfig(f_s=58e9, f_e=64e9, f_0=62e9, bandwidth=1e8)
model = SpectralModel(
    psd=GaussianPsd(std=2.5e7),                      # ~95% of power within 100 MHz
    filter=RaisedCosineFilter(rolloff=0.0, width=1e8),  # ideal 100 MHz window
)

print("band 58-64 GHz, receiver at 62 GHz, 100 MHz filter, Gaussian interferer PSD")
near, far = band.offset_edges
print(f"offset density slabs: 2/(band span) up to {near/1e9:.0f} GHz, then 1/(span) up to {far/1e9:.0f} GHz")
print()

print("capture fraction vs spectral offset:")
offsets = np.array([0.0, 2.5e7, 5e7, 7.5e7, 1e8, 1.5e8, 2e8, 3e8])
for w in offsets:
    print(f"  offset {w/1e6:7.1f} MHz -> Upsilon = {upsilon(w, band, model):.6f}")
print()
print("only offsets within a few filter bandwidths matter; the rest of the")
print("6 GHz band contributes nothing, which is why co-channel neighbors")
print("dominate the interference budget.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    w = np.linspace(0.0, 4e8, 400)
    ups = upsilon(w, band, model)
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.2))
    ax1.plot(w / 1e6, ups)
    ax1.set_xlabel("spectral offset (MHz)")
    ax1.set_ylabel("capture fraction")
    ax1.grid(True)
    wg = np.linspace(0.0, 4.5e9, 600)
    ax2.plot(wg / 1e9, frequency_offset_pdf(wg, band) * 1e9)
    ax2.set_xlabel("spectral offset (GHz)")
    ax2.set_ylabel("density (1/GHz)")
    ax2.grid(True)
    fig.tight_layout()
    fig.savefig("spectral_overlap.png", dpi=120)
    print("\nwrote spectral_overlap.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
