"""Hardy-space walkthrough: radius-ladder norms, boundary kernels and the
classical Toeplitz matrix from Fourier coefficients.

Run with: python3 demos/hardy_boundary.py
"""

import numpy as np

from funcalg import hardy
from funcalg.numcore import HoloPoly, boundary_grid_from, boundary_points

print("=== norms over the radius ladder ===")
f = HoloPoly([1.0, 2.0 - 1.0j, 0.0, 0.5j])
for r in hardy.RADIUS_LADDER:
    print(f"r={r}: p=2 circle mean = {hardy.hardy_norm_parseval(f, r):.12f}")
print(f"hardy_norm (sup of the ladder): {hardy.hardy_norm(f, 2.0):.12f}")

print("\n=== boundary kernels ===")
print(f"Poisson kernel P(0.5, 1) = {hardy.poisson_kernel(0.5, 1.0)}  (exact 3)")
xi = boundary_points(256)
print(f"Poisson mean at z=0.3+0.2i: "
      f"{np.mean(hardy.poisson_kernel(0.3 + 0.2j, xi)):.12f}  (exact 1)")

z = 0.4 - 0.1j
print(f"Szego reproduction error at {z}: "
      f"{abs(hardy.szego_reproduce(f, z) - f(z)):.2e}")
print(f"Poisson reproduction error:      "
      f"{abs(hardy.poisson_reproduce(f, z) - f(z)):.2e}")

rep = hardy.subharmonic_check(f, z, p=1.0)
print(f"subharmonic bound |f(z)| <= Poisson average: {rep['holds']} "
      f"(lhs={rep['lhs']:.6f}, rhs={rep['rhs']:.6f})")

print("\n=== Hardy-Toeplitz matrix ===")
phi_hat = np.zeros(7, dtype=complex)      # offsets -3..3, entry k mod 7 holds offset k
phi_hat[[0, 1, -1]] = 1.0, 2.0, 3.0
mat = hardy.hardy_toeplitz(phi_hat, 3).entries
print("symbol with hat(0)=1, hat(1)=2, hat(-1)=3:")
print(mat.real.astype(int))

print("\n=== disc algebra membership ===")
member, witness = hardy.disc_algebra_membership(
    boundary_grid_from(lambda x: 1 + x + x ** 3, 64))
print(f"1 + xi + xi^3:            member={member}")
member, witness = hardy.disc_algebra_membership(
    boundary_grid_from(lambda x: x + 0.5 * np.conj(x) ** 2, 64))
print(f"xi + 0.5 conj(xi)^2:      member={member}, witness offset {witness}")
