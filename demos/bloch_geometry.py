"""Bloch-space walkthrough: seminorms, Mobius transforms and the invariant
gradient.

Run with: python3 demos/bloch_geometry.py
"""

import numpy as np

from funcalg import bloch
from funcalg.numcore import HoloPoly

print("=== seminorm of z^2 ===")
rep = bloch.bloch_seminorm(HoloPoly([0, 0, 1]), alpha=1.0)
print(f"computed:  {rep.seminorm:.12f}")
print(f"closed form 4/(3*sqrt(3)): {4 / (3 * np.sqrt(3)):.12f}")
print(f"attained near |z| = {abs(rep.argmax_z):.6f}  (exact 1/sqrt(3) = "
      f"{1 / np.sqrt(3):.6f})")
print(f"enclosure: [{rep.seminorm:.15f}, {rep.upper:.15f}], converged = {rep.converged}")

print("\n=== alpha sweep for f = z^2 ===")
for alpha in (0.5, 1.0, 1.5, 2.0):
    rep = bloch.bloch_seminorm(HoloPoly([0, 0, 1]), alpha)
    print(f"alpha={alpha:.1f}: seminorm={rep.seminorm:.8f} "
          f"argmax |z|={abs(rep.argmax_z):.4f}")

print("\n=== Mobius transform ===")
a = 0.4 - 0.3j
print(f"phi_a(0) = {bloch.mobius(a, 0.0)}  (should be a = {a})")
print(f"phi_a(a) = {bloch.mobius(a, a):.2e}  (should be 0)")
z = 0.2 + 0.5j
print(f"phi_a(phi_a(z)) - z = {abs(bloch.mobius(a, bloch.mobius(a, z)) - z):.2e}")

print("\n=== invariant gradient ===")
f = HoloPoly([0, 0, 1])
for r in (0.0, 0.3, 0.6, 0.9):
    print(f"|grad| at z={r}: {bloch.invariant_gradient_norm(f, r):.6f}")

print("\n=== little Bloch membership ===")
radii = np.concatenate([np.linspace(0.1, 0.9, 9), [0.99, 0.999, 0.99999]])
print("polynomial z^2 + 2z + 1:",
      bloch.little_bloch_test(HoloPoly([1, 2, 1]), radii))

print("\n=== pointwise multiplier ===")
tests = [HoloPoly([1.0]), HoloPoly([0, 1]), HoloPoly([1, 1, 1])]
print("multiplier norm of phi = 1 on a small test set:",
      f"{bloch.multiplier_norm_report(HoloPoly([1.0]), tests):.6f}")
