"""Spectral transforms: bitwise regression against the ``*_ref`` oracles.

The batched transforms of ``SpectralTransform`` must be bitwise identical
on the numpy float64 path to the naive per-field formulation in
``repro.backend.kernels`` — the same pinning discipline ``legendre_plan``
uses against its per-m reference loop.  Covers serial (2-D) and batched
(nlev, nens=3) inputs on both truncation kinds, the workspace-resident
elementwise chains, and backend-parametrized transform round-trips that
skip cleanly when torch is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atmosphere.spectral import SpectralTransform, Truncation
from repro.backend import (
    BackendUnavailableError,
    get_backend,
    get_workspace,
    robert_filter,
)
from repro.backend import kernels as K

NLAT, NLON, MMAX = 24, 48, 10
L, E = 3, 3


def _bitwise(a, b) -> bool:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.fixture(params=["rhomboidal", "triangular"])
def tr(request):
    # The bitwise contract is a numpy-float64 contract: pin the backend so
    # these tests don't float with a FOAM_BACKEND=torch CI environment.
    return SpectralTransform(NLAT, NLON, Truncation(MMAX, request.param),
                             backend="numpy")


@pytest.fixture()
def fields(tr):
    rng = np.random.default_rng(42)
    spec = (rng.normal(size=(L, E) + tr.spec_shape)
            + 1j * rng.normal(size=(L, E) + tr.spec_shape))
    spec[..., 0, :] = spec[..., 0, :].real   # m=0 of a real field is real
    spec *= tr._mask
    grid = rng.normal(size=(L, E, tr.nlat, tr.nlon))
    u = rng.normal(size=(L, E, tr.nlat, tr.nlon))
    v = rng.normal(size=(L, E, tr.nlat, tr.nlon))
    return spec, grid, u, v


# ---------------------------------------------------------------------------
# batched transform == oracle, bitwise, serial and batched
# ---------------------------------------------------------------------------
class TestFusedBitwise:
    def test_analyze(self, tr, fields):
        _, grid, _, _ = fields
        batched = tr.analyze(grid)
        serial = tr.analyze(grid[0, 0])
        ref = K.analyze_ref(tr, grid[0, 0])
        assert _bitwise(serial, ref)
        for l in range(L):
            for e in range(E):
                assert _bitwise(batched[l, e], K.analyze_ref(tr, grid[l, e]))

    def test_synthesize(self, tr, fields):
        spec, _, _, _ = fields
        batched = tr.synthesize(spec)
        assert _bitwise(tr.synthesize(spec[0, 0]),
                        K.synthesize_ref(tr, spec[0, 0]))
        for l in range(L):
            for e in range(E):
                assert _bitwise(batched[l, e],
                                K.synthesize_ref(tr, spec[l, e]))

    def test_synthesize_many(self, tr, fields):
        spec, _, _, _ = fields
        a, b, c = spec, spec * 2.0, spec * 0.5
        ga, gb, gc = tr.synthesize_many(a, b, c)
        for got, src in ((ga, a), (gb, b), (gc, c)):
            for l in range(L):
                for e in range(E):
                    assert _bitwise(got[l, e], K.synthesize_ref(tr, src[l, e]))

    def test_uv_from_vortdiv(self, tr, fields):
        spec, _, _, _ = fields
        vs, ds = spec, spec * 0.3
        bu, bv = tr.uv_from_vortdiv(vs, ds)
        su, sv = tr.uv_from_vortdiv(vs[0, 0], ds[0, 0])
        ru, rv = K.uv_from_vortdiv_ref(tr, vs[0, 0], ds[0, 0])
        assert _bitwise(su, ru) and _bitwise(sv, rv)
        for l in range(L):
            for e in range(E):
                ru, rv = K.uv_from_vortdiv_ref(tr, vs[l, e], ds[l, e])
                assert _bitwise(bu[l, e], ru) and _bitwise(bv[l, e], rv)

    def test_vortdiv_from_uv(self, tr, fields):
        _, _, u, v = fields
        bz, bd = tr.vortdiv_from_uv(u, v)
        for l in range(L):
            for e in range(E):
                rz, rd = K.vortdiv_from_uv_ref(tr, u[l, e], v[l, e])
                assert _bitwise(bz[l, e], rz) and _bitwise(bd[l, e], rd)

    def test_gradient(self, tr, fields):
        spec, _, _, _ = fields
        bx, by = tr.gradient(spec)
        for l in range(L):
            for e in range(E):
                rx, ry = K.gradient_ref(tr, spec[l, e])
                assert _bitwise(bx[l, e], rx) and _bitwise(by[l, e], ry)

    def test_roundtrip_identity(self, tr, fields):
        spec, _, _, _ = fields
        back = tr.analyze(tr.synthesize(spec))
        assert np.allclose(back, spec, atol=1e-12)


# ---------------------------------------------------------------------------
# workspace-resident elementwise chains
# ---------------------------------------------------------------------------
class TestElementwiseChains:
    def test_robert_filter_scalar(self):
        rng = np.random.default_rng(3)
        prev = rng.normal(size=(L, 8, 8)) + 1j * rng.normal(size=(L, 8, 8))
        curr = rng.normal(size=(L, 8, 8)) + 1j * rng.normal(size=(L, 8, 8))
        new = rng.normal(size=(L, 8, 8)) + 1j * rng.normal(size=(L, 8, 8))
        filt = 0.04
        got = robert_filter(prev, curr, new, filt, name="test.rob")
        want = curr + filt * (prev - 2 * curr + new)
        assert _bitwise(got, want)

    def test_robert_filter_per_member(self):
        rng = np.random.default_rng(4)
        shape = (L, E, 8, 8)
        prev, curr, new = (rng.normal(size=shape) for _ in range(3))
        filt = np.array([0.02, 0.04, 0.08]).reshape(E, 1, 1)
        got = robert_filter(prev, curr, new, filt, name="test.rob.mem")
        want = curr + filt * (prev - 2 * curr + new)
        assert _bitwise(got, want)

    def test_pp_viscosity_matches_expression(self):
        from repro.ocean.mixing import PPMixingParams, pp_viscosity
        rng = np.random.default_rng(5)
        ri = rng.normal(loc=1.0, scale=2.0, size=(4, 6, 6))
        p = PPMixingParams()
        nu, kappa = pp_viscosity(ri, p)
        ri_c = np.clip(ri, 0.0, p.ri_max)
        denom = 1.0 + p.alpha * ri_c
        nu_ref = p.nu0 / denom**p.exponent + p.nu_background
        kap_ref = (p.nu0 / denom**p.exponent) / denom + p.kappa_background
        unstable = ri < 0.0
        assert _bitwise(nu, np.where(unstable, p.convective_kappa, nu_ref))
        assert _bitwise(kappa, np.where(unstable, p.convective_kappa, kap_ref))

    def test_richardson_matches_expression(self):
        from repro.ocean.mixing import richardson_number
        rng = np.random.default_rng(6)
        u, v = rng.normal(size=(2, 5, 6, 6))
        n_sq = rng.normal(size=(4, 6, 6)) ** 2
        z = -np.cumsum(np.ones(5) * 10.0)
        got = richardson_number(u, v, n_sq, z)
        dz = (z[1:] - z[:-1]).reshape(-1, 1, 1)
        du = (u[1:] - u[:-1]) / dz
        dv = (v[1:] - v[:-1]) / dz
        want = n_sq / (du * du + dv * dv + 1e-10)
        assert _bitwise(got, want)

    def test_zeros_once_keeps_tail(self):
        ws = get_workspace()
        buf = ws.zeros_once("test.zeros_once", (4, 4), np.float64)
        assert np.all(buf == 0.0)
        buf[0] = 7.0
        again = ws.zeros_once("test.zeros_once", (4, 4), np.float64)
        assert again is buf
        assert np.all(again[0] == 7.0)       # hits do NOT re-zero
        assert np.all(again[1:] == 0.0)      # untouched region stays zero


# ---------------------------------------------------------------------------
# batched ensemble diagnostics == per-member serial metrics
# ---------------------------------------------------------------------------
def test_ensemble_member_metrics_match_serial():
    from repro.core import EnsembleConfig, FoamEnsemble, test_config
    from repro.scenarios.climatology import (
        ensemble_member_metrics, state_metrics,
    )

    cfg = test_config()
    cfg.backend = "numpy"      # metric-consistency check pins the numpy path
    ens = FoamEnsemble(EnsembleConfig(nens=3, base=cfg,
                                      ic_perturbation=1e-7))
    state = ens.initial_state()
    for _ in range(4):
        state = ens.step(state)
    batched = ensemble_member_metrics(ens.model, state)
    assert len(batched) == 3
    for e, got in enumerate(batched):
        want = state_metrics(ens.model, ens.member_state(state, e))
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-10), (
                f"member {e} metric {key}")


# ---------------------------------------------------------------------------
# backend-parametrized round trips (torch skips cleanly when absent)
# ---------------------------------------------------------------------------
def _backend_or_skip(name: str):
    try:
        return get_backend(name)
    except BackendUnavailableError:
        pytest.skip(f"{name} not installed")


@pytest.mark.parametrize("backend", ["numpy", "torch"])
class TestBackendRoundTrip:
    def test_transform_roundtrip(self, backend):
        bk = _backend_or_skip(backend)
        tr = SpectralTransform(NLAT, NLON, Truncation(MMAX), backend=bk)
        rng = np.random.default_rng(11)
        spec = (rng.normal(size=(L,) + tr.spec_shape)
                + 1j * rng.normal(size=(L,) + tr.spec_shape))
        spec[:, 0, :] = spec[:, 0, :].real   # m=0 of a real field is real
        spec = spec * tr._mask
        grid = tr.synthesize(spec)
        assert isinstance(grid, np.ndarray)
        back = tr.analyze(grid)
        assert np.allclose(back, spec, atol=1e-10)

    def test_winds_roundtrip(self, backend):
        bk = _backend_or_skip(backend)
        tr = SpectralTransform(NLAT, NLON, Truncation(MMAX), backend=bk)
        rng = np.random.default_rng(12)
        vs = (rng.normal(size=(L,) + tr.spec_shape)
              + 1j * rng.normal(size=(L,) + tr.spec_shape))
        vs[:, 0, :] = vs[:, 0, :].real       # m=0 of a real field is real
        vs = vs * tr._mask
        # Zero the (0,0) mode: uv_from_vortdiv cannot represent it.
        vs[:, 0, 0] = 0.0
        ds = vs * 0.5
        u, v = tr.uv_from_vortdiv(vs, ds)
        vz, dz = tr.vortdiv_from_uv(u, v)
        assert np.allclose(vz, vs, atol=1e-8)
        assert np.allclose(dz, ds, atol=1e-8)

    def test_matches_numpy_backend(self, backend):
        if backend == "numpy":
            pytest.skip("self-comparison")
        bk = _backend_or_skip(backend)
        tr_np = SpectralTransform(NLAT, NLON, Truncation(MMAX),
                                  backend="numpy")
        tr_bk = SpectralTransform(NLAT, NLON, Truncation(MMAX), backend=bk)
        rng = np.random.default_rng(13)
        grid = rng.normal(size=(L, tr_np.nlat, tr_np.nlon))
        assert np.allclose(tr_bk.analyze(grid), tr_np.analyze(grid),
                           rtol=1e-12, atol=1e-14)
        spec = tr_np.analyze(grid)
        assert np.allclose(tr_bk.synthesize(spec), tr_np.synthesize(spec),
                           rtol=1e-12, atol=1e-12)


def test_torch_coupled_day_matches_numpy():
    """A full coupled day under FOAM_BACKEND=torch agrees with numpy.

    Tolerance-gated (torch contractions accumulate in different orders, so
    bitwise equality is not expected); skipped when torch is missing.
    """
    try:
        get_backend("torch")
    except BackendUnavailableError:
        pytest.skip("torch not installed")
    from repro.core.config import test_config
    from repro.core.foam import FoamModel

    results = {}
    for backend in ("numpy", "torch"):
        cfg = test_config()
        cfg.backend = backend
        model = FoamModel(cfg)
        state = model.initial_state(seed=3)
        state = model.run_days(state, 1)
        results[backend] = state
    a, b = results["numpy"], results["torch"]
    assert np.allclose(b.atm_curr.temp, a.atm_curr.temp, rtol=1e-9, atol=1e-9)
    assert np.allclose(b.atm_curr.vort, a.atm_curr.vort, rtol=1e-9, atol=1e-12)
    assert np.allclose(b.ocean.temp, a.ocean.temp, rtol=1e-9, atol=1e-9)
    assert np.allclose(b.atm_curr.q, a.atm_curr.q, rtol=1e-7, atol=1e-12)
