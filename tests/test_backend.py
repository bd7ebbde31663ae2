"""Tests for the array-backend layer: dtype policy, backend registry,
workspace arena, float32 drift bounds, and the bitwise golden regression
that pins the default (float64/NumPy) configuration to the pre-backend
model trajectory.
"""

import threading
from pathlib import Path

import numpy as np
import pytest

from repro.backend import (
    FLOAT32,
    FLOAT64,
    BackendUnavailableError,
    Workspace,
    available_backends,
    default_policy,
    dtype_policy,
    get_backend,
    get_workspace,
    policy_from_name,
    set_default_dtype,
    workspace_enabled,
    workspace_totals,
)
from repro.core.config import test_config as _test_config
from repro.core.foam import FoamModel

GOLDEN = Path(__file__).parent / "data" / "golden_backend_float64.npz"


def _run_coupled(dtype: str, steps: int):
    cfg = _test_config()
    cfg.dtype = dtype
    # Pin the numpy backend the same way dtype is pinned: these tests check
    # the default path's arithmetic (bitwise for the golden), so they must
    # not float with a FOAM_BACKEND=torch CI environment.
    cfg.backend = "numpy"
    model = FoamModel(cfg)
    state = model.initial_state()
    for _ in range(steps):
        state = model.coupled_step(state)
    return model, state


# ---------------------------------------------------------------------------
# DTypePolicy
# ---------------------------------------------------------------------------
class TestDTypePolicy:
    def test_aliases_resolve(self):
        for alias in ("float64", "f64", "double", "fp64"):
            assert policy_from_name(alias) is FLOAT64
        for alias in ("float32", "F32", " single ", "fp32"):
            assert policy_from_name(alias) is FLOAT32

    def test_passthrough_and_default(self):
        assert policy_from_name(FLOAT32) is FLOAT32
        assert policy_from_name(None) is default_policy()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown dtype policy"):
            policy_from_name("float16")

    def test_pairs_and_bytes(self):
        assert FLOAT64.complex_dtype == np.dtype(np.complex128)
        assert FLOAT32.complex_dtype == np.dtype(np.complex64)
        assert FLOAT64.float_bytes == 8 and FLOAT32.float_bytes == 4
        assert FLOAT32.complex_bytes == 8

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("FOAM_DTYPE", "f32")
        assert default_policy() is FLOAT32
        monkeypatch.delenv("FOAM_DTYPE")
        assert default_policy() is FLOAT64

    def test_override_and_context(self, monkeypatch):
        monkeypatch.delenv("FOAM_DTYPE", raising=False)
        set_default_dtype("float32")
        try:
            assert default_policy() is FLOAT32
        finally:
            set_default_dtype(None)
        assert default_policy() is FLOAT64
        with dtype_policy("float32") as pol:
            assert pol is FLOAT32 and default_policy() is FLOAT32
        assert default_policy() is FLOAT64

    def test_asfloat_identity_no_copy(self):
        a = np.ones(4)
        assert FLOAT64.asfloat(a) is a          # no silent copies at float64
        down = FLOAT32.asfloat(a)
        assert down.dtype == np.float32
        c = np.ones(3, dtype=complex)
        assert FLOAT64.ascomplex(c) is c
        assert FLOAT32.ascomplex(c).dtype == np.complex64


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------
class TestBackendRegistry:
    def test_default_is_numpy(self):
        be = get_backend()
        assert be.name == "numpy" and be.xp is np
        assert get_backend("NumPy") is be       # case-insensitive, cached

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("FOAM_BACKEND", "numpy")
        assert get_backend().name == "numpy"

    def test_backend_instance_passthrough(self):
        be = get_backend("numpy")
        assert get_backend(be) is be

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_backend("jax")

    def test_registry_lists_optional_backends(self):
        names = available_backends()
        assert {"numpy", "torch"} <= set(names)

    @pytest.mark.parametrize("name", ["torch"])
    def test_missing_dependency_is_actionable(self, name):
        try:
            __import__(name)
        except ImportError:
            with pytest.raises(BackendUnavailableError, match=name):
                get_backend(name)
        else:  # dependency actually present: selection must succeed
            assert get_backend(name).name == name

    def test_numpy_allocation_surface(self):
        be = get_backend("numpy")
        z = be.zeros((2, 3), np.float32)
        assert z.shape == (2, 3) and z.dtype == np.float32 and not z.any()
        e = be.empty((4,), np.float64)
        assert e.shape == (4,) and e.dtype == np.float64
        arr = be.asarray([1, 2], dtype=np.float64)
        assert be.to_numpy(arr) is not None
        assert np.array_equal(be.to_numpy(arr), [1.0, 2.0])


# ---------------------------------------------------------------------------
# Workspace arena
# ---------------------------------------------------------------------------
class TestWorkspace:
    def test_hit_miss_accounting(self):
        ws = Workspace()
        a = ws.empty("t.a", (3, 4), np.float64)
        assert ws.misses == 1 and ws.hits == 0
        b = ws.empty("t.a", (3, 4), np.float64)
        assert b is a and ws.hits == 1
        # A different shape or dtype or name is a distinct buffer.
        assert ws.empty("t.a", (4, 3), np.float64) is not a
        assert ws.empty("t.a", (3, 4), np.float32) is not a
        assert ws.empty("t.b", (3, 4), np.float64) is not a
        assert len(ws) == 4

    def test_zeros_refill_bitwise(self):
        ws = Workspace()
        buf = ws.zeros("t.z", (5,), np.float64)
        buf[:] = np.pi
        again = ws.zeros("t.z", (5,), np.float64)
        assert again is buf
        fresh = np.zeros(5)
        assert np.array_equal(again, fresh)
        assert np.array_equal(again.view(np.uint64), fresh.view(np.uint64))

    def test_like_helpers(self):
        ws = Workspace()
        ref = np.ones((2, 2), dtype=np.complex64)
        assert ws.empty_like("t.e", ref).dtype == np.complex64
        z = ws.zeros_like("t.zl", ref)
        assert z.shape == (2, 2) and not z.any()

    def test_nbytes_and_clear(self):
        ws = Workspace()
        ws.empty("t.a", (10,), np.float64)
        assert ws.nbytes == 80
        ws.clear()
        assert len(ws) == 0 and ws.hits == 0 and ws.misses == 0

    def test_kill_switch(self, monkeypatch):
        monkeypatch.setenv("FOAM_WORKSPACE", "0")
        assert not workspace_enabled()
        ws = Workspace()
        a = ws.empty("t.k", (3,), np.float64)
        b = ws.empty("t.k", (3,), np.float64)
        assert b is not a                       # reuse disabled
        assert ws.hits == 0 and ws.misses == 2  # every request allocates
        monkeypatch.delenv("FOAM_WORKSPACE")
        assert workspace_enabled()
        assert ws.empty("t.k", (3,), np.float64) is b  # reuse resumes in-process

    def test_thread_local_workspaces(self):
        main_ws = get_workspace()
        assert get_workspace() is main_ws
        seen = []
        t = threading.Thread(target=lambda: seen.append(get_workspace()))
        t.start()
        t.join()
        assert seen and seen[0] is not main_ws

    def test_totals_aggregate(self):
        before = workspace_totals()
        ws = Workspace()
        ws.empty("t.tot", (7,), np.float64)
        ws.empty("t.tot", (7,), np.float64)
        after = workspace_totals()
        assert after["misses"] - before["misses"] >= 1
        assert after["hits"] - before["hits"] >= 1
        assert after["nbytes"] >= before["nbytes"] + 56

    def test_counters_land_on_profiler_sections(self):
        from repro.perf.profiler import (
            enable_profiling, profile_section, take_profile,
        )
        prof = enable_profiling()
        prof.reset()
        try:
            ws = Workspace()
            with profile_section("wstest"):
                ws.empty("t.sec", (2,), np.float64)
                ws.empty("t.sec", (2,), np.float64)
        finally:
            prof.disable()
        profile = take_profile(label="ws counters")
        stat = profile["wstest"]
        assert stat.counters.get("ws.misses") == 1.0
        assert stat.counters.get("ws.hits") == 1.0


# ---------------------------------------------------------------------------
# Precision: float32 runs, stays float32, and drifts boundedly
# ---------------------------------------------------------------------------
class TestFloat32Integration:
    def test_float32_coupled_day_bounded_drift(self):
        steps = 24                              # one simulated day (test cfg)
        m64, s64 = _run_coupled("float64", steps)
        m32, s32 = _run_coupled("float32", steps)

        # State arrays carry the policy dtype all the way through.
        assert s32.atm_curr.vort.dtype == np.complex64
        assert s32.atm_curr.q.dtype == np.float32
        assert s32.ocean.temp.dtype == np.float32
        assert s32.ocean.eta.dtype == np.float32
        assert s64.atm_curr.vort.dtype == np.complex128

        # Conserved-quantity drift between precisions stays bounded: the
        # trajectories decorrelate pointwise, but mass (area-mean surface
        # pressure), column energy, and ocean kinetic energy must agree to
        # within far-better-than-single-precision-accumulation bounds.
        mass64 = m64.dycore.global_mass(s64.atm_curr)
        mass32 = m32.dycore.global_mass(s32.atm_curr)
        assert np.isfinite(mass32)
        assert abs(mass32 - mass64) / abs(mass64) < 1e-4

        e64 = m64.dycore.total_energy(s64.atm_curr)
        e32 = m32.dycore.total_energy(s32.atm_curr)
        assert np.isfinite(e32)
        assert abs(e32 - e64) / abs(e64) < 1e-3

        ke64 = m64.ocean.total_kinetic_energy(s64.ocean)
        ke32 = m32.ocean.total_kinetic_energy(s32.ocean)
        assert np.isfinite(ke32)
        assert abs(ke32 - ke64) / max(abs(ke64), 1e-12) < 5e-2

        for arr in (s32.atm_curr.temp, s32.atm_curr.q, s32.ocean.temp,
                    s32.ocean.salt, s32.ocean.eta):
            assert np.all(np.isfinite(arr))


# ---------------------------------------------------------------------------
# Bitwise golden regression: default policy == pre-backend trajectory
# ---------------------------------------------------------------------------
class TestGoldenRegression:
    def test_default_float64_bitwise_golden(self):
        """Six coupled steps of the test config reproduce the stored golden
        trajectory bit for bit.  ``dtype`` is pinned explicitly so the test
        also passes under a ``FOAM_DTYPE=float32`` CI environment — it pins
        the *default policy's* arithmetic, not the ambient environment.
        """
        _, s = _run_coupled("float64", 6)
        golden = np.load(GOLDEN)
        got = {
            "vort": s.atm_curr.vort, "temp": s.atm_curr.temp,
            "lnps": s.atm_curr.lnps, "q": s.atm_curr.q,
            "otemp": s.ocean.temp, "osalt": s.ocean.salt,
            "eta": s.ocean.eta, "ubar": s.ocean.ubar, "vbar": s.ocean.vbar,
        }
        for name, arr in got.items():
            ref = golden[name]
            assert arr.dtype == ref.dtype, f"{name}: dtype changed"
            assert np.array_equal(arr, ref), (
                f"{name}: trajectory diverged bitwise from the golden file; "
                "the default float64 path must stay bit-identical — if the "
                "numerics changed intentionally, regenerate "
                "tests/data/golden_backend_float64.npz")
