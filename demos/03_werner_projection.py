"""Noisy preparation, two ways, and the projection onto separated regions.

Builds the Werner mixture of two overlapping identical qubits directly in
the Bell basis, then again through the physical route (localized
depolarizing channel followed by a spatial deformation), and shows both
give the same post-selected two-qubit register.
"""

import math

import numpy as np

from islocc import BOSON, FERMION
from islocc.ensembles import mixed_trace
from islocc.entanglement import analyze
from islocc.slocc import project
from islocc.states import SpatialWave
from islocc.werner import (WernerSpec, depolarize_then_deform, project_werner, spec_from_l,
                           werner_direct)

np.set_printoptions(precision=4, suppress=True)
sqrt_half = 1.0 / math.sqrt(2.0)

print("=== noise-free overlapping fermions: the distributed singlet ===")
spec = spec_from_l(0.0, "1_minus", sqrt_half, sqrt_half, FERMION)
projected = project_werner(spec)
print(projected.matrix.real)
print("detection probability:", projected.probability)

print()
print("=== maximum noise, same configuration: still the singlet ===")
spec = spec_from_l(1.0, "1_minus", sqrt_half, sqrt_half, FERMION)
projected = project_werner(spec)
print(projected.matrix.real)
print("detection probability:", projected.probability)
print("concurrence:", analyze(projected).concurrence)

print()
print("=== partial overlap: noise leaks in ===")
spec = spec_from_l(0.6, "1_minus", 0.9, math.sqrt(1 - 0.81), FERMION)
projected = project_werner(spec)
report = analyze(projected)
print(projected.matrix.real)
print(f"P_LR = {projected.probability:.4f}  C = {report.concurrence:.4f}  "
      f"E_f = {report.eof:.4f}  B = {report.bell:.4f}")

print()
print("=== the physical construction agrees element by element ===")
psi1 = SpatialWave.from_l(0.85)
psi2 = SpatialWave.from_l(0.6, 1.1)
for stats, label in ((FERMION, "fermions"), (BOSON, "bosons")):
    direct = project(werner_direct(WernerSpec(0.35, "1_minus", psi1, psi2, stats)),
                     ("L", "R"))
    channel = project(depolarize_then_deform(0.35, "1_minus", psi1, psi2, stats),
                      ("L", "R"))
    gap = np.max(np.abs(direct.matrix - channel.matrix))
    print(f"{label:8s} max |direct - channel| = {gap:.2e}, "
          f"probabilities {direct.probability:.6f} vs {channel.probability:.6f}")

print()
print("=== the mixture is unnormalized until projection ===")
mixture = werner_direct(spec_from_l(0.4, "1_minus", 0.8, 0.7, FERMION))
print("global trace of the raw ensemble:", mixed_trace(mixture))
