import math

import numpy as np
import pytest

from islocc.amplitudes import BOSON, FERMION
from islocc.entanglement import (SIGMA_Y, NotXShapedError, analyze,
                                 bell_horodecki, bell_xstate, binary_entropy,
                                 correlation_matrix, eof)
from islocc.slocc import ProjectionUndefinedError
from islocc.states import SpatialWave
from islocc.werner import WernerSpec, project_werner, spec_from_l

SQRT_HALF = 1.0 / math.sqrt(2.0)
FLIP = np.kron(SIGMA_Y, SIGMA_Y)


def _spin_flip(rho):
    """Spin-flipped conjugate (sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    return FLIP @ rho.conj() @ FLIP


def _bell_vector(kind):
    if kind == "psi_minus":
        return np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    if kind == "psi_plus":
        return np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
    if kind == "phi_plus":
        return np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2)


def _projector(vec):
    return np.outer(vec, vec.conj())


def _werner_matrix(p):
    return (1 - p) * _projector(_bell_vector("psi_minus")) + p * np.eye(4) / 4


def _random_density(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = a @ a.conj().T
    return m / np.trace(m).real


def _random_unitary(rng, dim=2):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestConcurrence:
    @pytest.mark.parametrize("kind", ["psi_minus", "psi_plus", "phi_plus", "phi_minus"])
    def test_bell_states_are_maximal(self, kind):
        assert analyze(_projector(_bell_vector(kind))).concurrence == pytest.approx(1.0, abs=1e-12)

    def test_product_states_are_zero(self, rng):
        for _ in range(20):
            a = _random_unitary(rng) @ np.array([1, 0])
            b = _random_unitary(rng) @ np.array([1, 0])
            rho = _projector(np.kron(a, b))
            assert analyze(rho).concurrence <= 1e-8

    def test_distinguishable_werner_closed_form(self):
        assert analyze(_werner_matrix(0.4)).concurrence == pytest.approx(0.4, abs=1e-12)
        assert analyze(_werner_matrix(0.9)).concurrence == 0.0

    def test_invariant_under_local_rotations(self, rng):
        for _ in range(100):
            rho = _werner_matrix(rng.uniform(0, 1))
            u = np.kron(_random_unitary(rng), _random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert analyze(rotated).concurrence == \
                pytest.approx(analyze(rho).concurrence, abs=1e-9)

    def test_lambda_sum_matches_trace(self, rng):
        for _ in range(50):
            rho = _random_density(rng)
            lambdas = np.array(analyze(rho).lambdas)
            expected = np.trace(rho @ _spin_flip(rho)).real
            assert math.fsum(lambdas) == pytest.approx(expected, abs=1e-12)
            assert np.all(lambdas[:-1] >= lambdas[1:])  # sorted descending

    def test_pure_states_match_the_flip_overlap(self, rng):
        # C(|psi><psi|) = |psi^T (sigma_y x sigma_y) psi|; the eigenvalues of
        # the non-Hermitian product rho rho~ lost up to ~2e-8 of it here
        worst = 0.0
        for _ in range(1000):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            c = analyze(_projector(psi)).concurrence
            worst = max(worst, abs(c - abs(psi @ FLIP @ psi)))
        assert worst <= 1e-13

    def test_raw_spectrum_is_nearly_real_non_negative(self, rng):
        for _ in range(50):
            rho = _random_density(rng)
            raw = np.linalg.eigvals(rho @ _spin_flip(rho))
            assert np.min(raw.real) >= -1e-10
            assert np.max(np.abs(raw.imag)) <= 1e-10


class TestEof:
    def test_endpoints(self):
        assert eof(0.0) == 0.0
        assert eof(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_concurrence_value(self):
        assert eof(0.5) == pytest.approx(0.354578902665270, abs=1e-12)

    def test_strictly_increasing(self):
        grid = np.linspace(1e-6, 1.0, 1000)
        values = [eof(c) for c in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_binary_entropy_boundaries(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)


class TestBellHorodecki:
    def test_singlet_reaches_tsirelson(self):
        rho = _projector(_bell_vector("psi_minus"))
        assert bell_horodecki(rho) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_maximally_mixed_has_no_correlations(self):
        rho = np.eye(4, dtype=complex) / 4
        np.testing.assert_allclose(correlation_matrix(rho), np.zeros((3, 3)), atol=1e-14)
        assert bell_horodecki(rho) == pytest.approx(0.0, abs=1e-12)

    def test_distinguishable_werner_boundary(self):
        p_star = 1 - 1 / math.sqrt(2)
        assert bell_horodecki(_werner_matrix(p_star)) == pytest.approx(2.0, abs=1e-12)
        assert bell_horodecki(_werner_matrix(p_star - 0.01)) > 2.0
        assert bell_horodecki(_werner_matrix(p_star + 0.01)) < 2.0


class TestBellXState:
    def test_singlet_components(self):
        result = bell_xstate(_projector(_bell_vector("psi_minus")))
        assert result.p == pytest.approx(-1.0, abs=1e-14)
        assert result.q == pytest.approx(1.0, abs=1e-14)
        assert result.bell == pytest.approx(2 * math.sqrt(2), abs=1e-13)

    def test_maximally_mixed(self):
        result = bell_xstate(np.eye(4, dtype=complex) / 4)
        assert result.bell == 0.0

    def test_rejects_non_x_matrix(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = rho[1, 0] = 0.05
        with pytest.raises(NotXShapedError, match="bell_horodecki"):
            bell_xstate(rho)

    def test_matches_general_criterion_on_singlet_target_family(self, rng):
        worst = 0.0
        for _ in range(250):
            spec = WernerSpec(rng.uniform(0, 1), "1_minus",
                              SpatialWave.from_l(rng.uniform(0.05, 0.95)),
                              SpatialWave.from_l(rng.uniform(0.05, 0.95),
                                                 rng.uniform(0, 2 * math.pi)),
                              BOSON if rng.integers(2) else FERMION)
            try:
                projected = project_werner(spec)
            except ProjectionUndefinedError:
                continue
            worst = max(worst, abs(bell_xstate(projected).bell - bell_horodecki(projected)))
        assert worst <= 1e-9

    def test_is_lower_bound_for_triplet_target_family(self, rng):
        # with the triplet target the transverse correlations dominate and the
        # unrestricted criterion can exceed the X-state expression; the sweep
        # layer deliberately reports the latter
        gap_seen = 0.0
        for _ in range(100):
            spec = spec_from_l(rng.uniform(0, 1), "1_plus", rng.uniform(0.3, 0.95),
                               rng.uniform(0.3, 0.95), FERMION)
            projected = project_werner(spec)
            x_value = bell_xstate(projected).bell
            general = bell_horodecki(projected)
            assert x_value <= general + 1e-9
            gap_seen = max(gap_seen, general - x_value)
        assert gap_seen > 0.01


class TestAnalyze:
    def test_report_is_consistent(self):
        spec = spec_from_l(0.35, "1_minus", 0.82, 0.64, FERMION)
        projected = project_werner(spec)
        report = analyze(projected)
        # the X-state closed form 2 max(0, |r23| - sqrt(r11 r44), |r14| - sqrt(r22 r33))
        m, d = projected.matrix, projected.matrix.diagonal().real
        closed = 2 * max(0.0, abs(m[1, 2]) - math.sqrt(d[0] * d[3]),
                         abs(m[0, 3]) - math.sqrt(d[1] * d[2]))
        assert report.concurrence == pytest.approx(closed, abs=1e-13)
        assert report.eof == pytest.approx(eof(report.concurrence), abs=1e-13)
        assert report.bell == pytest.approx(bell_xstate(projected).bell, abs=1e-13)
        assert len(report.lambdas) == 4

    def test_non_x_input_falls_back_to_general_criterion(self, rng):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = rho[1, 0] = 0.05
        report = analyze(rho)
        assert report.bell == pytest.approx(bell_horodecki(rho), abs=1e-13)
        assert math.isnan(report.bell_p) and math.isnan(report.bell_q)

    def test_matches_the_single_matrix_references(self, rng):
        # X-shaped and general matrices: each general one must take the
        # Horodecki value, each X one the closed form
        rows = [_werner_matrix(0.4), _random_density(rng), np.eye(4) / 4,
                _random_density(rng), _projector(_bell_vector("phi_minus"))]
        for rho in rows:
            report = analyze(rho)
            assert report.eof == pytest.approx(eof(report.concurrence), abs=1e-12)
            try:
                x = bell_xstate(rho)
            except NotXShapedError:
                assert report.bell == pytest.approx(bell_horodecki(rho), abs=1e-12)
                assert math.isnan(report.bell_p) and math.isnan(report.bell_q)
            else:
                assert (report.bell, report.bell_p, report.bell_q) == \
                    pytest.approx(tuple(x), abs=1e-12)

    def test_zero_matrix_reads_zero(self):
        report = analyze(np.zeros((4, 4)))
        assert report.concurrence == report.eof == report.bell == 0.0

    def test_rejects_non_hermitian_input(self):
        # the Wootters spectrum reads one triangle: this matrix read C = 0,
        # its transpose C = 0.15
        rho = np.eye(4, dtype=complex) / 4
        rho[1, 2] = 0.4
        for m in (rho, rho.T, np.full((4, 4), math.nan)):
            for read in (analyze, correlation_matrix, bell_horodecki, bell_xstate):
                with pytest.raises(ValueError, match="Hermitian"):
                    read(m)

    def test_rejects_wrong_shape(self):
        for shape in ((2, 4, 4), (2, 2)):
            with pytest.raises(ValueError, match="4x4"):
                analyze(np.zeros(shape))
