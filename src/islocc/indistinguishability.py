"""Entropic degree of spatial indistinguishability under localized detection.

When one particle is found in each of N separated regions, the detection
record does not reveal which wave function fed which region.  The joint
probability of each of the N! assignments, normalized by their sum, gives
a distribution whose Shannon entropy measures that missing which-way
information: 0 bits for fully distinguishable particles, log2(N!) when
every assignment is equally likely.

Only the spatial marginal |<region|psi>|^2 enters (pseudospins are left
untouched by the particle counting), so states carrying spin are summed
over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .states import SingleParticleState

__all__ = [
    "IndistinguishabilityBreakdown",
    "region_probability",
    "degree_two",
    "degree_n",
]


def _xlog2x(x: float) -> float:
    # continuity convention 0 * log2(0) = 0
    return 0.0 if x <= 0.0 else x * math.log2(x)


def region_probability(state: SingleParticleState, region: str) -> float:
    """Probability |<region|psi>|^2 of finding the particle in ``region``,
    summed over spin."""
    if region not in state.basis:
        raise ValueError(f"region {region!r} is not a mode of the state's basis")
    row = state.vector.reshape(-1, 2)[state.basis.index(region)]
    return math.fsum(abs(v) ** 2 for v in row.tolist())


@dataclass(frozen=True)
class IndistinguishabilityBreakdown:
    """Joint assignment probabilities, their normalizer and the entropy.

    ``joint_probs`` maps each permutation (as a tuple: entry i is the index
    of the wave function assigned to region i) to its unnormalized joint
    probability.
    """

    joint_probs: dict[tuple[int, ...], float]
    normalizer: float
    entropy: float


def degree_n(states: Sequence[SingleParticleState],
             regions: Sequence[str]) -> IndistinguishabilityBreakdown:
    """Degree of spatial indistinguishability of N particles over N regions.

    Raises ``ValueError`` when no assignment is detectable (normalizer 0),
    in which case the measure is undefined.
    """
    states = tuple(states)
    regions = tuple(regions)
    if len(states) != len(regions):
        raise ValueError(f"need as many regions as states, got {len(states)} states "
                         f"and {len(regions)} regions")
    if len(set(regions)) != len(regions):
        raise ValueError(f"region labels must be distinct, got {regions!r}")
    n = len(states)
    probs = [[region_probability(s, r) for s in states] for r in regions]
    joint: dict[tuple[int, ...], float] = {}
    for perm in permutations(range(n)):
        value = 1.0
        for i in range(n):
            value *= probs[i][perm[i]]
        joint[perm] = value
    normalizer = math.fsum(joint.values())
    if normalizer <= 0.0:
        raise ValueError("no assignment of particles to regions is detectable; "
                         "the indistinguishability degree is undefined")
    entropy = -math.fsum(_xlog2x(v / normalizer) for v in joint.values())
    if entropy <= 0.0:  # also normalizes -0.0
        entropy = 0.0
    return IndistinguishabilityBreakdown(joint, normalizer, entropy)


def degree_two(psi1: SingleParticleState,
               psi2: SingleParticleState) -> IndistinguishabilityBreakdown:
    """Two-particle degree over the regions L and R; the (0, 1) key of the
    result is the joint probability that L saw psi1 and R saw psi2."""
    return degree_n((psi1, psi2), ("L", "R"))
