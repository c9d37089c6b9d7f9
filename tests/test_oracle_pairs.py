"""The oracle's mutual pairs stay independent: with one side of a pair made to
raise wherever the package can reach it, the other side still computes."""

import sys

import numpy as np
import pytest

from islocc import amplitudes, ensembles, slocc, states, werner
from islocc.amplitudes import BOSON, FERMION, ElementaryKet
from islocc.states import UP, ModeBasis, SingleParticleState
from islocc.werner import (closed_form_probability_minus, closed_form_probability_plus,
                           spec_from_l, werner_direct)

ABC = ModeBasis(("A", "B", "C"))


def _broken(*args, **kwargs):
    raise AssertionError("this side of the oracle pair must not be used")


def _disable(monkeypatch, *functions):
    """Make every package attribute bound to one of ``functions`` raise."""
    for name, module in list(sys.modules.items()):
        if name != "islocc" and not name.startswith("islocc."):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is f for f in functions):
                monkeypatch.setattr(module, attr, _broken)


def _kets(statistics):
    """bra = |A, B, C> (spin up) and a ket whose overlap matrix is
    [[1, 2, 0], [3, 4, 0], [0, 0, 1j]]: permanent 10j, determinant -2j."""
    bra = ElementaryKet(tuple(SingleParticleState.localized(ABC, mode, UP)
                              for mode in ABC.labels), statistics)
    columns = ({"A": 1, "B": 3}, {"A": 2, "B": 4}, {"C": 1j})
    ket = ElementaryKet(tuple(SingleParticleState(ABC, {(m, UP): v for m, v in c.items()})
                              for c in columns), statistics)
    return bra, ket


HAND = {BOSON: 10j, FERMION: -2j}


def test_project_needs_no_ensemble_norm(monkeypatch):
    _disable(monkeypatch, ensembles.pure_norm_sq, ensembles.mixed_trace)
    spec = spec_from_l(0.4, "1_minus", 0.8, 0.6, FERMION)
    projected = slocc.project(werner_direct(spec), ("L", "R"))
    expected = closed_form_probability_minus(0.8, 0.6, 0.6, 0.8, 0.4, FERMION)
    assert projected.probability == pytest.approx(expected, abs=1e-12)
    with pytest.raises(AssertionError, match="oracle pair"):
        ensembles.mixed_trace(werner_direct(spec))


@pytest.mark.parametrize("statistics", [BOSON, FERMION])
def test_project_builds_no_ket_and_calls_no_amplitude(monkeypatch, statistics):
    spec = spec_from_l(0.4, "1_minus", 0.8, 0.6, statistics)
    state = werner_direct(spec)
    _disable(monkeypatch, ElementaryKet, amplitudes.amplitude, amplitudes.amplitude_fast)
    projected = slocc.project(state, ("L", "R"))
    expected = closed_form_probability_minus(0.8, 0.6, 0.6, 0.8, 0.4, statistics)
    assert projected.probability == pytest.approx(expected, abs=1e-12)
    with pytest.raises(AssertionError, match="oracle pair"):
        amplitudes.amplitude(None, None)


@pytest.mark.parametrize("statistics", [BOSON, FERMION])
def test_permutation_sum_needs_no_permanent_or_determinant(monkeypatch, statistics):
    _disable(monkeypatch, amplitudes.amplitude_fast, amplitudes.permanent_ryser)
    monkeypatch.setattr(np.linalg, "det", _broken)
    bra, ket = _kets(statistics)
    assert amplitudes.amplitude_permsum(bra, ket) == pytest.approx(HAND[statistics], abs=1e-14)
    with pytest.raises(AssertionError, match="oracle pair"):
        amplitudes.amplitude_fast(bra, ket)


@pytest.mark.parametrize("statistics", [BOSON, FERMION])
def test_fast_path_needs_no_permutation_sum(monkeypatch, statistics):
    _disable(monkeypatch, amplitudes.amplitude_permsum)
    bra, ket = _kets(statistics)
    assert amplitudes.amplitude_fast(bra, ket) == pytest.approx(HAND[statistics], abs=1e-14)
    with pytest.raises(AssertionError, match="oracle pair"):
        amplitudes.amplitude_permsum(bra, ket)


#: Each target with its closed-form detection probability, for both statistics.
#: ``spec_from_l`` takes the canonical theta, under which the closed forms hold.
WERNER_PAIRS = [(target, closed_form, statistics)
                for target, closed_form in (("1_minus", closed_form_probability_minus),
                                            ("1_plus", closed_form_probability_plus))
                for statistics in (BOSON, FERMION)]


@pytest.mark.parametrize("target, closed_form, statistics", WERNER_PAIRS)
def test_channel_needs_no_direct_mixture(monkeypatch, target, closed_form, statistics):
    spec = spec_from_l(0.4, target, 0.8, 0.6, statistics)
    _disable(monkeypatch, werner.bell_states, werner.werner_direct, states.make_peaked)
    state = werner.depolarize_then_deform(spec.p, target, spec.psi1, spec.psi2, statistics)
    projected = slocc.project(state, ("L", "R"))
    expected = closed_form(0.8, 0.6, 0.6, 0.8, 0.4, statistics)
    assert projected.probability == pytest.approx(expected, abs=1e-12)
    with pytest.raises(AssertionError, match="oracle pair"):
        werner.werner_direct(spec)


@pytest.mark.parametrize("target, closed_form, statistics", WERNER_PAIRS)
def test_direct_mixture_needs_no_channel(monkeypatch, target, closed_form, statistics):
    spec = spec_from_l(0.4, target, 0.8, 0.6, statistics)
    _disable(monkeypatch, werner.depolarize_then_deform, werner.depolarizing_kraus)
    monkeypatch.setattr(SingleParticleState, "substitute_modes", _broken)
    projected = slocc.project(werner_direct(spec), ("L", "R"))
    expected = closed_form(0.8, 0.6, 0.6, 0.8, 0.4, statistics)
    assert projected.probability == pytest.approx(expected, abs=1e-12)
    with pytest.raises(AssertionError, match="oracle pair"):
        werner.depolarize_then_deform(spec.p, target, spec.psi1, spec.psi2, statistics)
