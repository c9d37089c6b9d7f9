"""The dense reference behind the projection tests: the product kets that span
the detection subspace, and single matrix elements <bra| m |ket> summed over
an ensemble one overlap at a time.  :func:`islocc.slocc.project` reads the
same block off the Fock basis in one pass."""

from typing import Sequence

from islocc.amplitudes import ElementaryKet
from islocc.ensembles import MixedState, state_overlap
from islocc.slocc import _check_regions, spin_configurations
from islocc.states import ModeBasis, SingleParticleState


def computational_kets(basis: ModeBasis, regions: Sequence[str],
                       statistics) -> list[ElementaryKet]:
    """Elementary kets |R_1 s_1, ..., R_N s_N> spanning the detection subspace."""
    regions = _check_regions(basis, regions)
    kets = []
    for spins in spin_configurations(len(regions)):
        particles = tuple(SingleParticleState.localized(basis, mode, spin)
                          for mode, spin in zip(regions, spins))
        kets.append(ElementaryKet(particles, statistics))
    return kets


def matrix_element(bra: ElementaryKet, m: MixedState, ket: ElementaryKet) -> complex:
    """<bra| m |ket> = sum_e w_e <bra|state_e><state_e|ket>."""
    return sum((w * state_overlap(bra, s) * state_overlap(ket, s).conjugate()
                for w, s in m.ensemble if w > 0), 0j)
