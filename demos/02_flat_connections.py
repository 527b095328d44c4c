"""Gradient descent on the matrix Yang-Mills action.

Starts from random antihermitian connection coefficients, follows the
trace-metric gradient of the curvature action, and classifies the flat
point it lands on by the quadratic Casimir: the gauge orbit of A = 0
(Casimir 0) or of the canonical frame connection A_k = iE_k
(Casimir n(n^2-1) = 6 for n = 2).
"""
import numpy as np

from ncgauge import (
    MatrixBasis,
    MatrixConnection,
    action,
    casimir_invariant,
    curvature,
    flat_connection_check,
    minimize,
    random_connection,
)

np.set_printoptions(precision=4, suppress=True)

basis = MatrixBasis.gellmann(2)

# the two known flat points
zero = MatrixConnection.zero(basis)
frame = MatrixConnection.canonical_flat(basis)
print("action at A = 0        :", action(zero) + 0.0)
print("action at A_k = iE_k   :", action(frame) + 0.0)
print("curvature F_01 at the frame point:\n", curvature(frame)[0, 1])

print("\ndescent from 6 random starts")
print(f"{'seed':>4} {'iters':>6} {'final action':>14} {'curv residual':>14} {'casimir':>8}  orbit")
for seed in range(6):
    conn0 = random_connection(basis, np.random.default_rng(seed))
    res = minimize(conn0)
    rep = flat_connection_check(res.connection)
    orbit = "frame" if round(rep.casimir) == 6 else "zero"
    print(
        f"{seed:>4} {res.iterations:>6} {res.action:>14.3e} "
        f"{rep.flatness.residual:>14.3e} {rep.casimir:>8.3f}  {orbit}"
    )

# the action decreases monotonically along the trace
res = minimize(random_connection(basis, np.random.default_rng(42)))
print("\ntrace for seed 42 (each accepted step, with its halvings):")
for it, s, g, step, backtracks in res.trace:
    print(f"  iter {it:>3}  S = {s:.6e}  |grad| = {g:.3e}  step = {step:.3e}  halvings = {backtracks}")
print(f"  ... converged = {res.converged} after {res.iterations} iterations")

# the Casimir is constant on gauge orbits, so it separates the two endpoints
print("\ncasimir at A = 0 :", casimir_invariant(zero))
print("casimir at frame :", casimir_invariant(frame))
