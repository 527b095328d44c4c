"""One-dimensional lattice with a matrix-geometry Higgs sector.

Each site carries an anti-Hermitian gauge potential a_mu and a triple of
algebra-valued scalars b_k.  Together they form one connection with one
curvature F_AB; its weighted squared norm has three pieces: the gauge
curvature, the covariant scalar kinetic term, and a quartic potential
whose minima are the frame configuration b_k = iE_k.  The demo evaluates both exact vacua, then
computes the small-fluctuation mass spectrum at the broken vacuum and
shows the Higgs-mechanism pattern: one exact zero mode (the residual
U(1) along the identity) and a degenerate massive triplet whose mass
scales with mu^2.
"""
import numpy as np

from ncgauge import (
    MatrixBasis,
    lattice_action,
    mass_spectrum,
    random_lattice_config,
    vacuum_config,
    zero_momentum_gradient_norm,
)

basis = MatrixBasis.gellmann(2)
L = 16

for kind in ("symmetric", "broken"):
    cfg = vacuum_config(kind, (L,), basis, mu=1.0)
    print(
        f"{kind:>9} vacuum: S = {lattice_action(cfg):.1e}, "
        f"|grad| = {zero_momentum_gradient_norm(cfg):.2e}"
    )

rng = np.random.default_rng(1)
rough = random_lattice_config((L,), basis, 1.0, rng, scale=0.3)
print(f"   random config: S = {lattice_action(rough):.4f}  (positive, as it must be)")

print("\nmass spectrum over constant gauge-potential shifts of a (broken vacuum, L = 16):")
print(f"{'mu':>5} {'eigenvalues':>36} {'nonzero/mu^2':>14}")
for mu in (0.5, 1.0, 2.0):
    spectrum = mass_spectrum(vacuum_config("broken", (L,), basis, mu=mu))
    scaled = spectrum[1:] / mu**2
    print(f"{mu:>5.2f} {np.array2string(spectrum, precision=4):>36} {np.array2string(scaled, precision=4):>14}")
print("-> one exact zero mode (identity direction), triplet at L*mu^2/2")

spectrum_sym = mass_spectrum(vacuum_config("symmetric", (L,), basis, mu=1.0))
print("\nsymmetric vacuum spectrum:", np.array2string(spectrum_sym, precision=4))
print("-> all flat: the quartic potential only turns on at fourth order there")
