import numpy as np
import pytest

from crmatrix import (SampledCellFunction, gapped_basis_gram, gapped_cell_basis,
                      projection_residual, translation_audit,
                      truncated_position_expectation)
from crmatrix.divergence import CENTERED, FROM_ORIGIN


def uniform_cell(a=1.0, m=256):
    return SampledCellFunction.from_callable(lambda r: np.ones_like(r), a, m).normalized()


def test_uniform_from_origin_closed_form():
    a = 1.0
    st = truncated_position_expectation(uniform_cell(a), 0.0, [1, 2, 4, 8, 16, 32],
                                        FROM_ORIGIN)
    assert np.allclose(st.values, a * (st.windows - 1) / 2.0, atol=1e-12)
    assert st.slope == pytest.approx(a / 2, abs=1e-12)
    assert st.r_squared == pytest.approx(1.0, abs=1e-12)


def test_uniform_centered_odd_windows_vanish():
    st = truncated_position_expectation(uniform_cell(), 0.0, [1, 3, 5, 9], CENTERED)
    assert np.allclose(st.values, 0.0, atol=1e-12)


def test_gapped_basis_truncation_grows_linearly():
    a = 1.0
    basis = gapped_cell_basis(1, a, 2048)
    cell = SampledCellFunction(values=basis[0].astype(complex), lattice_constant=a)
    cell = cell.normalized()
    st = truncated_position_expectation(cell, 0.0, [8, 16, 32, 64, 128, 256], FROM_ORIGIN)
    assert st.r_squared > 0.999
    assert st.slope > 0.1
    assert np.all(np.isfinite(st.values))
    assert np.all(np.diff(st.values) > 0)  # monotone growth, unbounded in W


def test_truncation_rejects_unnormalized():
    a = 1.0
    raw = SampledCellFunction.from_callable(lambda r: 2.0 * np.ones_like(r), a, 128)
    with pytest.raises(ValueError):
        truncated_position_expectation(raw, 0.0, [2, 4])


def test_translation_uniform_exact_cell_exchange():
    au = translation_audit(uniform_cell(), 0.0, 32)
    assert au.measured_shift == pytest.approx(-1.0, abs=1e-12)
    assert au.predicted_shift == -1.0


def test_translation_localized_density():
    a = 1.0
    width = 0.03
    cell = SampledCellFunction.from_callable(
        lambda r: np.exp(-((r - a / 2) ** 2) / (2 * width ** 2)), a, 4096).normalized()
    for w in (4, 16, 64):
        au = translation_audit(cell, 0.0, w)
        assert au.measured_shift == pytest.approx(-a, abs=1e-9)


def test_translation_values_grow_but_shift_bounded():
    audits = [translation_audit(uniform_cell(), 0.0, w) for w in (32, 64)]
    assert audits[1].before > audits[0].before
    assert audits[1].after > audits[0].after
    assert audits[0].measured_shift == pytest.approx(audits[1].measured_shift, abs=1e-12)


def test_residual_in_span_target():
    a = 1.0
    basis = gapped_cell_basis(3, a, 2048)
    target = SampledCellFunction(values=basis[2].astype(complex), lattice_constant=a)
    assert projection_residual(target, 3) < 1e-12
    assert projection_residual(target, 8) < 1e-12


@pytest.mark.parametrize("n_max", [1, 8, 64])
def test_residual_gap_supported_target_stays_one(n_max):
    a = 1.0
    target = SampledCellFunction.from_callable(
        lambda r: np.where(r > a / 2, np.sin(3 * np.pi * (r - a / 2) / a), 0.0),
        a, 2048).normalized()
    assert projection_residual(target, n_max) == pytest.approx(1.0, abs=1e-12)


def test_residual_constant_target_orthogonal_to_whole_period_basis():
    # every basis function completes whole periods on the half cell, so a
    # constant has no overlap with any of them and the residual stays 1;
    # restoring the odd harmonics sin(2 n pi r / a) recovers the expected
    # sqrt(1/2) limit where only the vacuum-gap share of the norm survives
    a = 1.0
    m = 4096
    const = SampledCellFunction.from_callable(lambda r: np.ones_like(r), a, m).normalized()
    assert projection_residual(const, 64) == pytest.approx(1.0, abs=1e-12)

    r = np.linspace(0.0, a, m + 1)
    ns = np.arange(1, 257)
    half_interval = (2.0 / np.sqrt(a)) * np.sin(2.0 * np.pi * np.outer(ns, r) / a)
    half_interval[:, r > a / 2] = 0.0
    coeffs = np.array([const.integrate(b * const.values) for b in half_interval])
    captured = float(np.sum(np.abs(coeffs) ** 2)) / const.norm_squared()
    assert np.sqrt(1.0 - captured) == pytest.approx(np.sqrt(0.5), abs=2e-3)


def test_gapped_basis_gram_is_scaled_identity():
    gram, worst = gapped_basis_gram(2, 4, 1.0, 2048)
    assert worst < 1e-10
    assert np.allclose(np.diag(gram), 4.0, atol=1e-10)


def test_gapped_basis_gram_single():
    gram, worst = gapped_basis_gram(1, 1, 1.0, 512)
    assert gram.shape == (1, 1)
    assert gram[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert worst == 0.0


def test_quadrature_converges_quadratically():
    # density with mismatched endpoint derivatives: trapezoid error O(M^-2)
    a = 1.0

    def amp(r):
        return np.sqrt(1.0 + 0.6 * np.sin(np.pi * r / (2 * a)))

    ref = SampledCellFunction.from_callable(amp, a, 1 << 15).normalized().cell_mean_position()
    errs = []
    for m in (128, 256, 512):
        val = SampledCellFunction.from_callable(amp, a, m).normalized().cell_mean_position()
        errs.append(abs(val - ref))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_cell_function_requires_minimum_sampling():
    with pytest.raises(ValueError):
        SampledCellFunction(values=np.ones(32), lattice_constant=1.0)


def test_gapped_basis_gram_factor_rule_matches_chain_quadrature():
    # reference: every basis function sampled on the whole chain and
    # integrated by one trapezoid rule (the factor rule sums per cell)
    n_max, n_cells, a, samples = 3, 5, 1.7, 256
    cell = gapped_cell_basis(n_max, a, samples)
    k = np.arange(n_cells) * 2.0 * np.pi / (n_cells * a)
    funcs = np.zeros((n_max * n_cells, n_cells * samples + 1), dtype=complex)
    for n in range(n_max):
        for p in range(n_cells):
            for j in range(n_cells):
                funcs[n * n_cells + p, j * samples:(j + 1) * samples + 1] = \
                    np.exp(1j * k[p] * j * a) * cell[n]
    want = np.trapezoid(funcs[:, None, :].conj() * funcs[None, :, :], dx=a / samples, axis=2)
    gram, _ = gapped_basis_gram(n_max, n_cells, a, samples)
    assert np.max(np.abs(gram - want)) < 1e-13
