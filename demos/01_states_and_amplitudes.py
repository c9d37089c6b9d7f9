"""Single-particle states and exchange-statistics amplitudes.

Walks through the basic objects: peaked wave functions on two measurement
regions, their overlaps, and the permutation-sum amplitude that makes
bosons bunch and fermions exclude.
"""

import math

from islocc import BOSON, FERMION
from islocc.amplitudes import ElementaryKet, amplitude_fast, amplitude_permsum, overlap_matrix
from islocc.states import (DOWN, UP, ModeBasis, SingleParticleState, SpatialWave, inner,
                           make_peaked)

basis = ModeBasis(("L", "R"))
sqrt_half = 1.0 / math.sqrt(2.0)

print("=== peaked single-particle states ===")
psi1 = make_peaked(SpatialWave(0.8, 0.6), UP, basis)
psi2 = make_peaked(SpatialWave(0.6, 0.8), UP, basis)
flipped = make_peaked(SpatialWave(sqrt_half, sqrt_half, math.pi), DOWN, basis)
print("psi1 amplitudes:", dict(psi1.amplitudes))
print("theta=pi state: ", dict(flipped.amplitudes))
print("<psi1|psi2> =", inner(psi1, psi2), "(hand expansion: 0.8*0.6 + 0.6*0.8 = 0.96)")
print("<psi1|psi1> =", inner(psi1, psi1))

print()
print("=== two-particle amplitudes: direct + exchange term ===")
bra = ElementaryKet((SingleParticleState.localized(basis, "L", UP),
                     SingleParticleState.localized(basis, "R", DOWN)), FERMION)
ket = ElementaryKet((make_peaked(SpatialWave(0.8, 0.6), UP, basis),
                     make_peaked(SpatialWave(0.6, 0.8), DOWN, basis)), FERMION)
print("overlap matrix:\n", overlap_matrix(bra, ket).real)
print("<L up, R down | psi1 up, psi2 down> =", amplitude_fast(bra, ket))
print("(the exchange term dies on the spin mismatch, leaving 0.8 * 0.8)")

print()
print("=== statistics at work ===")
same = make_peaked(SpatialWave(0.8, 0.6, 0.3), UP, basis)
pair_f = ElementaryKet((same, same), FERMION)
pair_b = ElementaryKet((same, same), BOSON)
print("fermion <chi,chi|chi,chi> =", amplitude_permsum(pair_f, pair_f), "(Pauli)")
print("boson   <chi,chi|chi,chi> =", amplitude_permsum(pair_b, pair_b), "(bunching)")

triple = ElementaryKet((same, same, same), BOSON)
print("boson   three-fold stack  =", amplitude_fast(triple, triple), "= 3!")

print()
print("=== two evaluation paths cross-check ===")
worst = 0.0
for n, pair in ((2, (psi1, psi2)), (2, (same, flipped))):
    for stats in (BOSON, FERMION):
        a = ElementaryKet(pair, stats)
        diff = abs(amplitude_fast(a, a) - amplitude_permsum(a, a))
        worst = max(worst, diff)
print("naive permutation sum vs permanent/determinant, worst |diff| =", worst)
