"""Tests for PP mixing, convective adjustment, polar filter, and operators."""

import numpy as np
import pytest

from repro.ocean import (
    OceanGrid,
    PPMixingParams,
    apply_polar_filter,
    convective_adjustment,
    mix_column_implicit,
    polar_filter_factors,
    pp_viscosity,
    richardson_number,
)
from repro.ocean.filters import masked_zonal_smooth
from repro.ocean.operators import biharmonic, ddx, flux_divergence, laplacian


# ------------------------------------------------------------- PP mixing
def test_pp_viscosity_decreases_with_richardson():
    ri = np.array([0.0, 0.5, 2.0, 10.0])
    nu, kappa = pp_viscosity(ri)
    assert np.all(np.diff(nu) < 0)
    assert np.all(np.diff(kappa) < 0)
    assert np.all(kappa <= nu + 1e-12)


def test_pp_steeper_exponent_mixes_less_at_moderate_ri():
    """FOAM's steepened exponent (Peters et al.) cuts mixing at Ri ~ 0.5."""
    ri = np.array([0.5])
    nu_pp81, _ = pp_viscosity(ri, PPMixingParams(exponent=2.0))
    nu_foam, _ = pp_viscosity(ri, PPMixingParams(exponent=3.0))
    assert nu_foam[0] < nu_pp81[0]


def test_pp_convective_regime():
    nu, kappa = pp_viscosity(np.array([-0.1]))
    p = PPMixingParams()
    assert kappa[0] == p.convective_kappa


def test_richardson_number_sign_follows_stratification():
    z = np.array([10.0, 100.0])
    u = np.array([[0.1], [0.0]])
    v = np.zeros((2, 1))
    ri_stable = richardson_number(u, v, np.array([[1e-5]]), z)
    ri_unstable = richardson_number(u, v, np.array([[-1e-5]]), z)
    assert ri_stable[0, 0] > 0 > ri_unstable[0, 0]


def test_mix_column_conserves_integral_without_flux():
    dz = np.array([10.0, 20.0, 40.0, 80.0])
    field = np.array([20.0, 15.0, 10.0, 5.0])[:, None]
    kappa = np.full((3, 1), 1e-3)
    out = mix_column_implicit(field, kappa, dz, dt=3600.0)
    np.testing.assert_allclose((out[:, 0] * dz).sum(), (field[:, 0] * dz).sum(),
                               rtol=1e-12)


def test_mix_column_respects_mask():
    """No diffusion across the sea floor: inactive levels stay untouched."""
    dz = np.array([10.0, 20.0, 40.0])
    field = np.array([20.0, 10.0, 0.0])[:, None]
    kappa = np.full((2, 1), 1.0)
    mask = np.array([True, True, False])[:, None]
    out = mix_column_implicit(field, kappa, dz, dt=36000.0, mask=mask)
    assert out[2, 0] == 0.0
    # Active pair mixed toward each other.
    assert out[0, 0] < 20.0 and out[1, 0] > 10.0


def test_surface_flux_enters_top_layer():
    dz = np.array([10.0, 20.0])
    field = np.zeros((2, 1))
    kappa = np.zeros((1, 1))
    out = mix_column_implicit(field, kappa, dz, dt=100.0,
                              surface_flux=np.array([5.0e-2]))
    assert out[0, 0] == pytest.approx(5.0e-2 * 100.0 / 10.0)
    assert out[1, 0] == 0.0


# ------------------------------------------------------------- convective adj
def test_convective_adjustment_stabilizes_column():
    from repro.ocean.eos import density_anomaly

    z = np.array([10.0, 50.0, 200.0])
    dz = np.array([20.0, 60.0, 300.0])
    temp = np.array([2.0, 10.0, 12.0])[:, None]   # cold over warm: unstable
    salt = np.full((3, 1), 35.0)
    t2, s2 = convective_adjustment(temp, salt, z, dz, passes=12)
    rho = density_anomaly(t2, s2, 0.0)
    # Pairwise sweeps converge geometrically; a milli-unit residual remains.
    assert np.all(np.diff(rho[:, 0]) >= -2e-3)
    # The original profile was far more unstable than that.
    rho0 = density_anomaly(temp, salt, 0.0)
    assert np.diff(rho0[:, 0]).min() < -1.0


def test_convective_adjustment_conserves_heat():
    z = np.array([10.0, 50.0, 200.0])
    dz = np.array([20.0, 60.0, 300.0])
    temp = np.array([2.0, 10.0, 12.0])[:, None]
    salt = np.full((3, 1), 35.0)
    t2, _ = convective_adjustment(temp, salt, z, dz)
    np.testing.assert_allclose((t2[:, 0] * dz).sum(), (temp[:, 0] * dz).sum(),
                               rtol=1e-12)


def test_convective_adjustment_mask_protects_inactive():
    z = np.array([10.0, 50.0])
    dz = np.array([20.0, 60.0])
    temp = np.array([[10.0], [0.0]])  # inactive placeholder below
    salt = np.array([[35.0], [0.0]])
    mask = np.array([[True], [False]])
    t2, s2 = convective_adjustment(temp, salt, z, dz, mask=mask)
    np.testing.assert_allclose(t2, temp)
    np.testing.assert_allclose(s2, salt)


def _convective_adjustment_full_recompute(temp, salt, dz, passes=3,
                                          mask=None):
    """Oracle: re-evaluate the whole density field after every mixed pair."""
    from repro.ocean.eos import density_anomaly

    t, s = temp.copy(), salt.copy()
    dzf = dz.reshape((-1,) + (1,) * (t.ndim - 1))
    for _ in range(passes):
        rho = density_anomaly(t, s, 0.0)
        for k in range(t.shape[0] - 1):
            unstable = rho[k] > rho[k + 1] + 1e-12
            if mask is not None:
                unstable &= mask[k] & mask[k + 1]
            if not np.any(unstable):
                continue
            w0 = dzf[k] / (dzf[k] + dzf[k + 1])
            w1 = 1.0 - w0
            t_mix = w0 * t[k] + w1 * t[k + 1]
            s_mix = w0 * s[k] + w1 * s[k + 1]
            t[k] = np.where(unstable, t_mix, t[k])
            t[k + 1] = np.where(unstable, t_mix, t[k + 1])
            s[k] = np.where(unstable, s_mix, s[k])
            s[k + 1] = np.where(unstable, s_mix, s[k + 1])
            rho = density_anomaly(t, s, 0.0)
    return t, s


@pytest.mark.parametrize("shape", [(6, 5, 7), (6, 3, 5, 7)],
                         ids=["serial", "batched"])
def test_convective_adjustment_matches_full_recompute(shape):
    """Refreshing only the mixed pair's density is bitwise the full pass."""
    rng = np.random.default_rng(7)
    L = shape[0]
    z = np.cumsum(np.linspace(20.0, 300.0, L))
    dz = np.linspace(20.0, 300.0, L)
    # Random profiles: many columns start unstable at several depths.
    temp = rng.uniform(-1.0, 25.0, shape)
    salt = rng.uniform(33.0, 36.0, shape)
    mask = rng.uniform(size=shape) > 0.1
    for m in (None, mask):
        t_new, s_new = convective_adjustment(temp, salt, z, dz, passes=3,
                                             mask=m)
        t_ref, s_ref = _convective_adjustment_full_recompute(
            temp, salt, dz, passes=3, mask=m)
        assert not np.array_equal(t_new, temp)     # columns really mixed
        np.testing.assert_array_equal(t_new, t_ref)
        np.testing.assert_array_equal(s_new, s_ref)


# ------------------------------------------------------------- polar filter
def test_polar_filter_factors_pass_equatorward():
    f = polar_filter_factors(64, coslat_row=0.9, coslat_crit=0.5)
    np.testing.assert_allclose(f, 1.0)


def test_polar_filter_factors_damp_high_wavenumbers():
    f = polar_filter_factors(64, coslat_row=0.1, coslat_crit=0.5)
    assert f[0] == 1.0
    assert f[-1] < 0.1
    assert np.all(np.diff(f[1:]) <= 1e-12)


def test_polar_filter_preserves_zonal_mean():
    g = OceanGrid(nx=32, ny=32, nlev=2)
    mask = np.ones((32, 32), dtype=bool)
    rng = np.random.default_rng(0)
    field = rng.normal(size=(32, 32))
    out = apply_polar_filter(field, g.lats, mask, lat_crit_deg=50.0)
    np.testing.assert_allclose(out.mean(axis=1), field.mean(axis=1), atol=1e-12)
    # Polar rows actually changed; tropical rows untouched.
    assert not np.allclose(out[-1], field[-1])
    j_eq = 16
    np.testing.assert_allclose(out[j_eq], field[j_eq])


def test_masked_smoother_never_uses_land_values():
    row = np.array([1.0, 2.0, 999.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    mask = np.array([True, True, False, True, True, True, True, True])
    out = masked_zonal_smooth(row, mask, passes=3)
    # Land cell unchanged, ocean values bounded by ocean range.
    assert out[2] == 999.0
    assert out[~(~mask)].max() <= 999.0
    ocean = out[mask]
    assert ocean.max() <= 7.0 + 1e-12 and ocean.min() >= 1.0 - 1e-12


# ------------------------------------------------------------- operators
@pytest.fixture
def opgrid():
    g = OceanGrid(nx=24, ny=24, nlev=2)
    mask = np.ones((24, 24), dtype=bool)
    return g, mask

def test_ddx_of_zonal_wave(opgrid):
    g, mask = opgrid
    field = np.sin(2 * g.lons)[None, :] * np.ones((24, 1))
    d = ddx(field, g.dx, mask)
    expect = 2 * np.cos(2 * g.lons)[None, :] / (g.dx[:, None] * 24 / (2 * np.pi) / 1)
    # centered difference of sin(2x): derivative scaled by sin(k dx)/dx factor
    k = 2
    dlon = 2 * np.pi / 24
    eff = np.sin(k * dlon) / dlon
    expect = eff * np.cos(2 * g.lons)[None, :] * (dlon / g.dx[:, None])
    np.testing.assert_allclose(d, expect, atol=1e-12)


def test_flux_divergence_conservative(opgrid):
    """Global area integral of div(H u) vanishes exactly (closed domain)."""
    g, mask = opgrid
    rng = np.random.default_rng(1)
    hu = rng.normal(size=(24, 24))
    hv = rng.normal(size=(24, 24))
    # Random land too.
    mask = rng.random((24, 24)) > 0.25
    div = flux_divergence(hu, hv, g.dx, g.dy, mask)
    areas = (g.dx * g.dy)[:, None]
    total = np.sum(div * areas)
    assert abs(total) < 1e-8 * np.sum(np.abs(div) * areas + 1e-30)


def test_laplacian_of_constant_is_zero(opgrid):
    g, mask = opgrid
    field = np.full((24, 24), 3.7)
    np.testing.assert_allclose(laplacian(field, g.dx, g.dy, mask), 0.0, atol=1e-18)
    np.testing.assert_allclose(biharmonic(field, g.dx, g.dy, mask), 0.0, atol=1e-18)


def test_laplacian_sign_at_maximum(opgrid):
    g, mask = opgrid
    field = np.zeros((24, 24))
    field[12, 12] = 1.0
    lap = laplacian(field, g.dx, g.dy, mask)
    assert lap[12, 12] < 0
    assert lap[12, 13] > 0


def test_ddx_centered_only_drops_coastal_gradient(opgrid):
    g, _ = opgrid
    mask = np.ones((24, 24), dtype=bool)
    mask[:, 10] = False
    field = np.cumsum(np.ones((24, 24)), axis=1)
    d_onesided = ddx(field, g.dx, mask)
    d_centered = ddx(field, g.dx, mask, centered_only=True)
    # Cells adjacent to the land column: one-sided keeps a gradient,
    # centered-only zeroes it.
    assert d_onesided[5, 9] != 0.0
    assert d_centered[5, 9] == 0.0
    # Interior unchanged between the two.
    np.testing.assert_allclose(d_centered[:, 3], d_onesided[:, 3])
