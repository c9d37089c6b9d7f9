"""The dense reference behind the projection tests: the product kets that span
the detection subspace, and single matrix elements <bra| m |ket> summed over
an ensemble one overlap at a time.  :func:`islocc.slocc.project` reads the
same block off the Fock basis in one pass."""

from itertools import product
from typing import Sequence

from islocc.amplitudes import ElementaryKet, amplitude
from islocc.ensembles import MixedState, PureNState
from islocc.slocc import _check_regions
from islocc.states import SPIN_ORDER, ModeBasis, SingleParticleState, Spin


def spin_configurations(n: int) -> list[tuple[Spin, ...]]:
    """Spin tuples in fixed computational order; for n=2 this is
    (up,up), (up,down), (down,up), (down,down)."""
    return list(product(SPIN_ORDER, repeat=n))


def state_overlap(bra: ElementaryKet, state: PureNState) -> complex:
    """<bra|state> for an elementary bra against a superposition."""
    return sum((c * amplitude(bra, ket) for c, ket in state.terms), 0j)


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
