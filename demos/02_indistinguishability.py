"""The entropic degree of spatial indistinguishability.

How much which-way information does joint detection erase?  Zero bits for
separated particles, one bit for two particles with equal shapes, up to
log2(N!) for N particles spread uniformly over N regions.
"""

import math

import numpy as np

from islocc.indistinguishability import degree_n, degree_two
from islocc.states import UP, ModeBasis, SingleParticleState, SpatialWave, make_peaked

LR = ModeBasis(("L", "R"))


def peaked(l, theta=0.0):
    return make_peaked(SpatialWave.from_l(l, theta), UP, LR)


print("=== two particles, two regions ===")
for l, lp in ((1.0, 0.0), (0.8, 0.6), (0.9, 0.9), (0.7071067811865476, 0.7071067811865476)):
    result = degree_two(peaked(l), peaked(lp))
    print(f"l={l:.4f} l'={lp:.4f}:  P12={result.joint_probs[(0, 1)]:.4f}  "
          f"P21={result.joint_probs[(1, 0)]:.4f}  I_LR={result.entropy:.6f}")

print()
print("=== sweep of the r' = l family (the knob used everywhere below) ===")
for l in np.linspace(1 / math.sqrt(2), 1.0, 8):
    lp = math.sqrt(1 - l * l)
    print(f"l = {l:.4f} -> I_LR = {degree_two(peaked(float(l)), peaked(lp)).entropy:.6f}")

print()
print("=== three particles, three regions ===")
R3 = ModeBasis(("R1", "R2", "R3"))
localized = [SingleParticleState.localized(R3, mode, UP) for mode in R3.labels]
print("each particle in its own region:", degree_n(localized, R3.labels).entropy)

amp = 1 / math.sqrt(3)
uniform = [SingleParticleState(R3, {(m, UP): amp for m in R3.labels}) for _ in range(3)]
result = degree_n(uniform, R3.labels)
print(f"uniform spread: I = {result.entropy:.10f}  (log2 3! = {math.log2(6):.10f})")
print("assignment probabilities:", {k: round(v, 5) for k, v in result.joint_probs.items()})
