"""Semi-implicit spectral primitive-equation dynamical core (PCCM2 lineage).

Solves the dry adiabatic primitive equations in vorticity-divergence form on
sigma levels, the formulation of Bourke (1974) / Hoskins & Simmons (1975)
that the NCAR CCM series (and hence FOAM's atmosphere) descends from:

* prognostic spectral fields: relative vorticity ``zeta``, divergence ``div``,
  temperature deviation ``T' = T - T_ref``, and log surface pressure ``lnps``;
* grid-space evaluation of all quadratic nonlinear terms (the "transform"
  method), including sigma-coordinate vertical advection and the
  energy-conversion term;
* semi-implicit leapfrog: the linear gravity-wave coupling between ``div``,
  ``T'`` and ``lnps`` is averaged across the leapfrog interval and solved by
  a precomputed per-total-wavenumber (L x L) matrix inverse, which is what
  lets FOAM take 30-minute steps at R15;
* Robert-Asselin time filter and CCM-style del^4 spectral hyperdiffusion;
* grid-space specific humidity ``q`` advected semi-Lagrangially
  (see :mod:`repro.atmosphere.semilag`), as the paper notes PCCM2 does.

Array conventions: grid fields are (nlev, nlat, nlon); spectral fields are
(nlev, nm, nk) complex (lnps: (nm, nk)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atmosphere.semilag import advect_semilagrangian
from repro.atmosphere.spectral import SpectralTransform
from repro.atmosphere.vertical import VerticalGrid
from repro.backend import get_workspace
from repro.backend.kernels import robert_filter
from repro.perf.profiler import profile_section, profiled
from repro.util.constants import CP, KAPPA, OMEGA, P0, RD


@dataclass
class AtmosphereState:
    """Prognostic state of the dynamical core (spectral + grid moisture)."""

    vort: np.ndarray    # (L, nm, nk) complex — relative vorticity
    div: np.ndarray     # (L, nm, nk) complex — divergence
    temp: np.ndarray    # (L, nm, nk) complex — T' = T - T_ref
    lnps: np.ndarray    # (nm, nk) complex — ln(ps / P0)
    q: np.ndarray       # (L, nlat, nlon) — specific humidity, grid space
    time: float = 0.0   # seconds since initialization

    def copy(self) -> "AtmosphereState":
        return AtmosphereState(self.vort.copy(), self.div.copy(), self.temp.copy(),
                               self.lnps.copy(), self.q.copy(), self.time)


@dataclass
class GridDiagnostics:
    """Grid-space fields diagnosed from a spectral state (one synthesis pass)."""

    u: np.ndarray           # (L, nlat, nlon) zonal wind
    v: np.ndarray           # meridional wind
    temp: np.ndarray        # full temperature T = T_ref + T'
    vort: np.ndarray        # relative vorticity
    div: np.ndarray         # divergence
    lnps: np.ndarray        # (nlat, nlon) ln(ps/P0)
    ps: np.ndarray          # surface pressure, Pa
    pressure: np.ndarray    # (L, nlat, nlon) full-level pressure
    geopotential: np.ndarray  # (L, nlat, nlon), above the surface
    omega_over_p: np.ndarray


class SpectralDynamicalCore:
    """The atmosphere dynamics engine: owns the transform, vertical grid, stepping."""

    def __init__(self, transform: SpectralTransform, vgrid: VerticalGrid,
                 dt: float = 1800.0, robert: float = 0.04,
                 diffusion_coefficient: float | None = None,
                 semi_implicit: bool = True,
                 rotation_factor: float = 1.0):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.tr = transform
        self.vg = vgrid
        self.dt = float(dt)
        # Scalar, or a per-member array broadcastable against every state
        # field (e.g. (nens, 1, 1) from the ensemble driver).  0-d arrays
        # collapse to python floats: a 0-d float64 array would silently
        # upcast float32/complex64 state through the Robert filter.
        self.robert = (robert if isinstance(robert, np.ndarray) and robert.ndim
                       else float(robert))
        self.semi_implicit = bool(semi_implicit)
        # CCM2 R15 recommended del^4 coefficient scales with resolution
        # (Williamson et al. 1995); default tuned so the smallest retained
        # scale damps with an e-folding of ~3 hours.
        if diffusion_coefficient is None:
            nmax = transform.trunc.mmax + transform.trunc.nk - 1
            k4_scale = (nmax * (nmax + 1) / transform.radius**2) ** 2
            diffusion_coefficient = 1.0 / (3.0 * 3600.0 * k4_scale)
        self.k4 = float(diffusion_coefficient)

        # Coriolis parameter as a grid field; f also enters the vorticity
        # equation through the nonlinear terms only (f itself is Y_1^0).
        # ``rotation_factor`` scales the planetary rotation (1 = Earth;
        # multiplying by exactly 1.0 is bitwise neutral).
        self.rotation_factor = float(rotation_factor)
        self.f_grid = (2.0 * (OMEGA * self.rotation_factor)
                       * transform.mu[:, None]
                       * np.ones((1, transform.nlon))
                       ).astype(transform.policy.float_dtype, copy=False)

        # Semi-implicit solver tables: one (L x L) inverse per total wavenumber.
        self._m_matrix = vgrid.semi_implicit_matrix()
        self._hyper_denom: np.ndarray | None = None
        self._hyper_dt: float | None = None
        self._build_implicit_inverses()

    # ------------------------------------------------------------------
    def _build_implicit_inverses(self) -> None:
        L = self.vg.nlev
        n_max = self.tr.trunc.mmax + self.tr.trunc.nk - 1
        eye = np.eye(L)
        dt = self.dt
        self._inv = np.empty((n_max + 1, L, L))
        for n in range(n_max + 1):
            b = n * (n + 1) / self.tr.radius**2
            self._inv[n] = np.linalg.inv(eye + dt * dt * b * self._m_matrix)
        # Map (m, k) slot -> n for gather operations.
        self._n_of_slot = self.tr.trunc.n_values()

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def initial_state(self, kind: str = "isothermal_rest", seed: int = 0,
                      noise_amplitude: float = 1e-8) -> AtmosphereState:
        """Build an initial state.

        ``isothermal_rest``: T = T_ref, no motion, uniform ps, plus optional
        rotational noise to break symmetry.  ``zonal_jet``: balanced
        midlatitude jets for dynamics tests.
        """
        L = self.vg.nlev
        nm, nk = self.tr.spec_shape
        cdt = self.tr.policy.complex_dtype
        fdt = self.tr.policy.float_dtype
        zero = np.zeros((L, nm, nk), dtype=cdt)
        state = AtmosphereState(
            vort=zero.copy(), div=zero.copy(), temp=zero.copy(),
            lnps=np.zeros((nm, nk), dtype=cdt),
            q=np.zeros((L, self.tr.nlat, self.tr.nlon), dtype=fdt))
        if kind == "isothermal_rest":
            if noise_amplitude > 0:
                rng = np.random.default_rng(seed)
                noise = (rng.normal(size=state.vort.shape)
                         + 1j * rng.normal(size=state.vort.shape)) * noise_amplitude
                noise[:, 0, :] = noise[:, 0, :].real
                state.vort += noise
        elif kind == "zonal_jet":
            # u = u0 sin^2(2 lat)-style jets via zonal vorticity coefficients.
            u0 = 20.0
            u = u0 * np.sin(2.0 * self.tr.lats) ** 2 * np.sign(self.tr.lats)
            ugrid = np.repeat(u[:, None], self.tr.nlon, axis=1)
            vgrid_ = np.zeros_like(ugrid)
            vs, ds = self.tr.vortdiv_from_uv(ugrid, vgrid_)
            for l in range(L):
                state.vort[l] = vs
                state.div[l] = ds
        else:
            raise ValueError(f"unknown initial state kind {kind!r}")
        return state

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @profiled("diagnose")
    def diagnose(self, state: AtmosphereState) -> GridDiagnostics:
        """Synthesize all grid fields the physics and coupler need.

        Accepts serial states ((L, nm, nk) spectral fields) and ensemble
        states with a member axis after the level axis ((L, E, nm, nk));
        grid diagnostics then carry the member axis in the same slot.
        """
        fdt = self.tr.policy.float_dtype
        # Whole-(level[, member]) stacks: one transform call per field
        # (ellipsis einsum batching is bitwise identical per slice).  The
        # returned grids are views of per-call-fresh inverse-FFT outputs,
        # so they escape into GridDiagnostics safely.
        u, v = self.tr.uv_from_vortdiv(state.vort, state.div)
        tg, zg, dg = self.tr.synthesize_many(state.temp, state.vort, state.div)
        tg = tg + self.vg.t_ref
        lnps = self.tr.synthesize(state.lnps)
        ps = P0 * np.exp(lnps)
        pressure = self.vg.sigma.reshape((-1,) + (1,) * ps.ndim) * ps[None]
        phi = self.vg.geopotential(tg).astype(fdt, copy=False)
        px, py = self.tr.gradient(state.lnps)
        vgradp = u * px[None] + v * py[None]
        wop = self.vg.omega_over_p(dg, vgradp).astype(fdt, copy=False)
        return GridDiagnostics(u=u, v=v, temp=tg, vort=zg, div=dg, lnps=lnps,
                               ps=ps, pressure=pressure, geopotential=phi,
                               omega_over_p=wop)

    # ------------------------------------------------------------------
    # tendency evaluation (the transform-method nonlinear terms)
    # ------------------------------------------------------------------
    def _nonlinear_tendencies(self, state: AtmosphereState):
        """Explicit (nonlinear) spectral tendencies N_zeta, N_D, N_T, N_pi.

        Returns also the grid diagnostics so the caller can reuse them.
        """
        tr, vg = self.tr, self.vg
        d = self.diagnose(state)
        tprime = d.temp - vg.t_ref

        px, py = tr.gradient(state.lnps)
        vgradp = d.u * px[None] + d.v * py[None]
        c = d.div + vgradp

        # Continuity: nonlinear part only (the -dsig.D part goes implicit).
        dsig = vg.dsigma.reshape((-1,) + (1,) * (vgradp.ndim - 1))
        npi_grid = -np.sum(dsig * vgradp, axis=0)
        n_pi = tr.analyze(npi_grid)

        sigdot = vg.sigma_dot(d.div, vgradp)
        du_dsig = vg.vertical_advection(sigdot, d.u)
        dv_dsig = vg.vertical_advection(sigdot, d.v)
        dt_dsig = vg.vertical_advection(sigdot, d.temp)

        absvort = d.vort + self.f_grid[None]
        fu = absvort * d.v - du_dsig - RD * tprime * px[None]
        fv = -absvort * d.u - dv_dsig - RD * tprime * py[None]

        ws = get_workspace()
        # Thermodynamic: advective form + full energy conversion, minus the
        # linear part that the implicit tau matrix will handle.
        # Linearized omega/p keeps only the divergence part:
        wop_lin = vg.omega_over_p(d.div, ws.zeros_like("dyn.wop_zero", vgradp))
        heating = KAPPA * d.temp * d.omega_over_p - KAPPA * vg.t_ref * wop_lin

        # Whole-(level[, member]) stacks: one transform call per term.
        n_vort, dt_all = tr.vortdiv_from_uv(fu, fv)
        energy = 0.5 * (d.u ** 2 + d.v ** 2)
        n_div = dt_all - tr.laplacian(tr.analyze(energy))
        tx, ty = tr.gradient(state.temp)
        adv_t = -(d.u * tx + d.v * ty)
        n_temp = tr.analyze(adv_t - dt_dsig + heating)
        return n_vort, n_div, n_temp, n_pi, d

    # ------------------------------------------------------------------
    # time stepping
    # ------------------------------------------------------------------
    def step(self, prev: AtmosphereState, curr: AtmosphereState
             ) -> tuple[AtmosphereState, AtmosphereState]:
        """One leapfrog step: (t-dt, t) -> (filtered t, t+dt).

        Returns the new (prev, curr) pair; the returned prev is the
        Robert-Asselin-filtered center state.
        """
        dt = self.dt
        with profile_section("nonlinear"):
            n_vort, n_div, n_temp, n_pi, diag = self._nonlinear_tendencies(curr)

        new_vort = prev.vort + 2.0 * dt * n_vort

        with profile_section("implicit"):
            if self.semi_implicit:
                new_div, new_temp, new_lnps = self._implicit_update(
                    prev, n_div, n_temp, n_pi)
            else:
                # Fully explicit update: linear terms evaluated at center time.
                g_mat = self.vg.hydrostatic_matrix()
                tau = self.vg.energy_conversion_matrix()
                dsig = self.vg.dsigma
                lin_d = np.tensordot(g_mat, curr.temp, axes=(1, 0)) \
                    + RD * self.vg.t_ref * curr.lnps[None]
                new_div = prev.div + 2.0 * dt * (n_div - self._lap3(lin_d))
                new_temp = prev.temp + 2.0 * dt * (
                    n_temp - np.tensordot(tau, curr.div, axes=(1, 0)))
                new_lnps = prev.lnps + 2.0 * dt * (
                    n_pi - self._dsig_dot(dsig, curr.div))

        # Mixed-precision leakage guard: the float64 implicit solver tables
        # upcast the update under a float32 policy; pin state dtype here.
        cdt = self.tr.policy.complex_dtype
        new_div = new_div.astype(cdt, copy=False)
        new_temp = new_temp.astype(cdt, copy=False)
        new_lnps = new_lnps.astype(cdt, copy=False)

        # del^4 hyperdiffusion, applied implicitly to the new fields.
        with profile_section("hyperdiffusion"):
            new_vort = self._hyperdiffuse(new_vort)
            new_div = self._hyperdiffuse(new_div)
            new_temp = self._hyperdiffuse(new_temp)

        # Semi-Lagrangian moisture transport on the grid.
        with profile_section("semilag"):
            new_q = advect_semilagrangian(self.tr, diag.u, diag.v, prev.q, 2.0 * dt)

        # Robert-Asselin filter on the center state: workspace-resident
        # chains, only the filtered sums allocate.
        filt = self.robert
        filtered = AtmosphereState(
            vort=robert_filter(prev.vort, curr.vort, new_vort, filt,
                               name="dyn.rob.vort"),
            div=robert_filter(prev.div, curr.div, new_div, filt,
                              name="dyn.rob.div"),
            temp=robert_filter(prev.temp, curr.temp, new_temp, filt,
                               name="dyn.rob.temp"),
            lnps=robert_filter(prev.lnps, curr.lnps, new_lnps, filt,
                               name="dyn.rob.lnps"),
            q=robert_filter(prev.q, curr.q, new_q, filt, name="dyn.rob.q"),
            time=curr.time)
        new = AtmosphereState(new_vort, new_div, new_temp, new_lnps, new_q,
                              time=curr.time + dt)
        return filtered, new

    def _lap3(self, spec3: np.ndarray) -> np.ndarray:
        """Laplacian applied along the last two (spectral) axes of (L, nm, nk)."""
        return spec3 * self.tr._lap[None]

    @staticmethod
    def _dsig_dot(dsig: np.ndarray, field: np.ndarray) -> np.ndarray:
        """Contract the level axis of ``field`` ((L, ...)) with ``dsig`` ((L,)).

        A single tensordot over a member-batched operand is a gemv whose
        accumulation order differs from the serial per-member call, so for
        batched fields each member is contracted separately — bitwise
        identical to serial member-at-a-time integration.
        """
        if field.ndim == 3:
            return np.tensordot(dsig, field, axes=(0, 0))
        out = np.empty(field.shape[1:], dtype=field.dtype)
        for e in range(field.shape[1]):
            out[e] = np.tensordot(dsig, field[:, e], axes=(0, 0))
        return out

    def _hyperdiffuse(self, spec3: np.ndarray) -> np.ndarray:
        # The implicit damping denominator depends only on (truncation, dt);
        # rebuild it only when dt changes instead of three times per step.
        if self._hyper_denom is None or self._hyper_dt != self.dt:
            n = self.tr.trunc.n_values().astype(np.float64)
            damp = self.k4 * (n * (n + 1.0) / self.tr.radius**2) ** 2
            denom = (1.0 + 2.0 * self.dt * damp)[None]
            self._hyper_denom = denom.astype(self.tr.policy.float_dtype, copy=False)
            self._hyper_dt = self.dt
        # Every caller passes a freshly built new-time field, so the
        # division can land in place (same op, no temporary).
        return np.divide(spec3, self._hyper_denom, out=spec3)

    def _implicit_update(self, prev: AtmosphereState, n_div, n_temp, n_pi):
        """Semi-implicit solve for divergence, then back-substitute T and lnps."""
        dt = self.dt
        vg, tr = self.vg, self.tr
        L = vg.nlev
        g_mat = vg.hydrostatic_matrix()
        tau = vg.energy_conversion_matrix()
        dsig = vg.dsigma
        m_mat = self._m_matrix

        t_star = prev.temp + dt * n_temp                  # (L, nm, nk)
        pi_star = prev.lnps + dt * n_pi                   # (nm, nk)
        # RHS: (I - dt^2 b M) D^- + 2 dt N_D + 2 dt b [G t* + R Tref pi*]
        gt = np.tensordot(g_mat, t_star, axes=(1, 0))
        lin = gt + RD * vg.t_ref * pi_star[None]

        n_vals = self._n_of_slot                          # (nm, nk)
        b = n_vals * (n_vals + 1) / tr.radius**2          # (nm, nk)

        md_prev = np.tensordot(m_mat, prev.div, axes=(1, 0))
        rhs = prev.div + 2.0 * dt * n_div \
            + 2.0 * dt * b[None] * lin \
            - dt * dt * b[None] * md_prev

        # Solve (I + dt^2 b M) D+ = rhs, gathering coefficients by n.
        # Batched fields solve member-at-a-time: a single gemm over all
        # members' gathered columns widens N and shifts BLAS blocking, which
        # perturbs the last bits relative to the serial solve.  The gathered
        # (L, S_n) operand per member is byte-identical to the serial one.
        new_div = np.empty_like(prev.div)
        flat_rhs = rhs.reshape(L, -1, n_vals.size)         # (L, E|1, S)
        flat_new = new_div.reshape(L, -1, n_vals.size)
        flat_n = n_vals.reshape(-1)
        for n in np.unique(flat_n):
            cols = flat_n == n
            inv = self._inv[n]
            for e in range(flat_rhs.shape[1]):
                flat_new[:, e][:, cols] = inv @ flat_rhs[:, e][:, cols]
        new_div = flat_new.reshape(prev.div.shape)

        dbar = 0.5 * (new_div + prev.div)
        new_temp = prev.temp + 2.0 * dt * n_temp \
            - 2.0 * dt * np.tensordot(tau, dbar, axes=(1, 0))
        new_lnps = prev.lnps + 2.0 * dt * n_pi \
            - 2.0 * dt * self._dsig_dot(dsig, dbar)
        return new_div, new_temp, new_lnps

    # ------------------------------------------------------------------
    def run(self, state: AtmosphereState, nsteps: int,
            forcing=None) -> AtmosphereState:
        """Integrate ``nsteps`` leapfrog steps from ``state`` (cold start).

        ``forcing(core, prev, curr) -> None`` may mutate ``curr`` in place
        between steps (used by tests for e.g. Held-Suarez-style relaxation).
        """
        prev = state
        curr = self._forward_start(state)
        for _ in range(nsteps):
            if forcing is not None:
                forcing(self, prev, curr)
            prev, curr = self.step(prev, curr)
        return curr

    def _forward_start(self, state: AtmosphereState) -> AtmosphereState:
        """Half-step Euler start to prime the leapfrog."""
        saved_dt = self.dt
        try:
            self.dt = 0.5 * saved_dt
            self._build_implicit_inverses()
            _, half = self.step(state, state)
        finally:
            self.dt = saved_dt
            self._build_implicit_inverses()
        half.time = state.time + saved_dt
        return half

    # ------------------------------------------------------------------
    # budgets used by tests and diagnostics
    # ------------------------------------------------------------------
    def global_mass(self, state: AtmosphereState) -> float:
        """Area-mean surface pressure (Pa): conserved by adiabatic dynamics."""
        return self.tr.global_mean(P0 * np.exp(self.tr.synthesize(state.lnps)))

    def total_energy(self, state: AtmosphereState) -> float:
        """Column-integrated total (kinetic + internal) energy per unit area."""
        d = self.diagnose(state)
        ke = 0.5 * (d.u**2 + d.v**2)
        ie = CP * d.temp
        col = np.tensordot(self.vg.dsigma, ke + ie, axes=(0, 0)) * d.ps / 9.80616
        return self.tr.global_mean(col)
