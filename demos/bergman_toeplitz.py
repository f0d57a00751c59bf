"""Bergman-space walkthrough: quadrature, projection, kernels and Toeplitz
operator identities on the unit disc.

Run with: python3 demos/bergman_toeplitz.py
"""

import numpy as np

from funcalg import bergman
from funcalg.numcore import HoloPoly, build_disc_quadrature, node_grid, sample

print("=== disc quadrature ===")
q = build_disc_quadrature(alpha=0.0, n_rad=64, n_ang=256)
u = node_grid(q.nodes, q)


def integral(values):
    """Radial rule over the per-radius angular means: the integral against dA."""
    return q.radial_weights @ np.mean(values, axis=1)


print(f"total mass: {np.sum(q.radial_weights):.15f}  (area measure normalized to 1)")
for k in range(4):
    mk = integral(np.abs(u) ** (2 * k))
    print(f"moment of |z|^{2 * k}: {mk:.12f}  (exact 1/{k + 1})")

print("\n=== reproducing kernel ===")
f = HoloPoly([1.0, 2.0 - 1.0j, 0.5])
z = 0.4 - 0.2j
kernel_vals = 1.0 / (1.0 - z * np.conj(u)) ** 2
reproduced = integral(f(u) * kernel_vals)
print(f"f({z}) = {f(z):.12f}")
print(f"kernel integral = {reproduced:.12f}")

print("\n=== projection ===")
proj = bergman.bergman_project(np.abs(q.nodes) ** 2, q, n=6)
print("projection of |z|^2 keeps only the constant mode:")
print(np.round(proj.coeffs, 10))

print("\n=== Toeplitz operator identities ===")
phi = np.abs(q.nodes) ** 2
mat = bergman.toeplitz_matrix(phi, q, n=5).entries
print("radial symbol |z|^2 gives a diagonal matrix, entries (k+1)/(k+2):")
print(np.round(np.diag(mat).real, 10))

fpoly = HoloPoly([0.5, 1.0])
gpoly = HoloPoly([1.0, 0.0, 0.25])
tf = bergman.toeplitz_matrix(fpoly(q.nodes), q, 8).entries
tg = bergman.toeplitz_matrix(gpoly(q.nodes), q, 8).entries
tfg = bergman.toeplitz_matrix((fpoly * gpoly)(q.nodes), q, 8).entries
blk = 8 + 1 - (fpoly.degree + gpoly.degree)
err = np.max(np.abs((tg @ tf - tfg)[:blk, :blk]))
print(f"holomorphic multiplicativity error on the leading block: {err:.2e}")

print("\n=== convolution submultiplicativity ===")
theta = q.angles
ring = np.tile(np.exp(1j * theta) + 0.5 * np.exp(-2j * theta), (q.n_rad, 1))
rep = bergman.check_convolution_submultiplicative(ring, ring, p=2.0, q=q)
print(f"radius-independent trig polynomial: lhs={rep['lhs']:.6f} "
      f"rhs={rep['rhs']:.6f} holds={rep['holds']}")

fz = sample(lambda z: z, q)
rep = bergman.check_convolution_submultiplicative(fz, fz, p=2.0, q=q)
print(f"monomial pair f=g=z:                lhs={rep['lhs']:.6f} "
      f"rhs={rep['rhs']:.6f} holds={rep['holds']}")
print("(the radius-dependent monomial pair genuinely violates the bound)")
