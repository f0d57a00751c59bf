"""Finite Gelfand-pair walkthrough: double cosets, commutativity detection and
spherical functions.

Run with: python3 demos/gelfand_pairs.py
"""

import numpy as np

from funcalg import gelfand

print("=== (S3, <transposition>) ===")
s3 = gelfand.symmetric(3)
t = next(g for g in range(1, 6) if s3.mul[g, g] == s3.id)
k = [s3.id, t]
blocks = gelfand.double_cosets(s3, k)
print(f"double cosets: {[list(map(int, b)) for b in blocks]}")
rep = gelfand.is_gelfand_pair(s3, k)
print(f"Gelfand pair: {rep['gelfand']} (max commutator {rep['max_commutator']:.2e})")

print("\nspherical functions (rows are values on the 6 group elements):")
for phi in gelfand.spherical_functions(s3, k):
    print(" ", np.round(phi.real, 6))

print("\n=== (Q8, trivial subgroup) ===")
q8 = gelfand.quaternion()
rep = gelfand.is_gelfand_pair(q8, [q8.id])
print(f"Gelfand pair: {rep['gelfand']}, witness basis pair: {rep['witness']}")
print("(the trivial pair of a nonabelian group recovers the full group algebra,")
print(" which is commutative only for abelian groups)")

print("\n=== (Z4, trivial subgroup): spherical functions are the characters ===")
for phi in gelfand.spherical_functions(gelfand.cyclic(4), [0]):
    print(" ", np.round(phi, 6))

print("\n=== weighted seminorm submultiplicativity ===")
rng = np.random.default_rng(0)
phi = np.ones(6)
worst = -np.inf
for _ in range(200):
    f1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    f2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    lhs = gelfand.phi_seminorm(gelfand.convolve(f1, f2, s3), phi, s3)
    rhs = gelfand.phi_seminorm(f1, phi, s3) * gelfand.phi_seminorm(f2, phi, s3)
    worst = max(worst, lhs - rhs)
print(f"worst gap lhs - rhs over 200 random pairs: {worst:.3e}  (<= 0 means holds)")

print("\n=== word-length weight on Z8: exp(5 |g|), |g| = min(g, 8 - g) ===")
z8 = gelfand.cyclic(8)
g = np.arange(8)
phi = np.exp(5.0 * np.minimum(g, 8 - g))
f = rng.standard_normal(8)
print(f"accepted as submultiplicative; seminorm of a random f: {gelfand.phi_seminorm(f, phi, z8):.6e}")
print("(the slack is relative: exp(5) * exp(5) rounds below exp(10) in floating point)")
