"""Vector-field walkthrough: exact brackets, numeric flows, the flow-commutator
limit and first-order prolongation.

Run with: python3 demos/lie_flows.py
"""

import numpy as np

from funcalg.liefields import (
    PolyVectorField,
    bracket_via_flows,
    check_lemma_prolongation,
    flow,
    format_polynomial,
    lie_bracket,
)

print("=== exact brackets ===")
x = PolyVectorField(["x2", "0"])     # y d/dx
y = PolyVectorField(["0", "x1"])     # x d/dy
br = lie_bracket(x, y)
print(f"[y d/dx, x d/dy] = ({', '.join(map(format_polynomial, br.components))})")

jac = (lie_bracket(x, lie_bracket(y, br))
       + lie_bracket(y, lie_bracket(br, x))
       + lie_bracket(br, lie_bracket(x, y)))
print(f"Jacobi residual is zero: {jac.is_zero()}")

print("\n=== numeric flows ===")
scale = PolyVectorField(["x1"])
end, err = flow(scale, [1.0], 1.0)
print(f"flow of x d/dx from 1 over t=1: {end[0]:.12f}  (exact e = {np.e:.12f})")
print(f"error estimate (series tail plus rounding): {err:.2e}")

rot = PolyVectorField(["-x2", "x1"])
end, _ = flow(rot, [1.0, 0.0], np.pi / 2)
print(f"quarter rotation of (1, 0): ({end[0]:.10f}, {end[1]:.10f})")

print("\n=== flow commutator converges to the bracket ===")
a = PolyVectorField(["x1 - 2*x2", "x1*x2"])
b = PolyVectorField(["x2", "x1**2 + 1"])
target = lie_bracket(a, b)((0.3, -0.2))
print(f"symbolic [X, Y](0.3, -0.2) = {target}")
for t in (0.1, 0.05, 0.025):
    est = bracket_via_flows(a, b, (0.3, -0.2), t)
    print(f"t={t:5.3f}: flow estimate {est}, error {np.max(np.abs(est - target)):.4f}")

print("\n=== order-1 prolongation is a bracket morphism ===")
rep = check_lemma_prolongation(a, b)
print(f"[X^(1), Y^(1)] == [X, Y]^(1) exactly: {rep['exact']}")
