"""FOAM: the coupled ocean-atmosphere model (the paper's contribution).

Assembles the spectral atmosphere (:mod:`repro.atmosphere`), the fast ocean
(:mod:`repro.ocean`) and the overlap-grid coupler (:mod:`repro.coupler`)
into the coupled system of the paper:

* the atmosphere advances on its 30-minute step; its lower boundary
  condition is replaced by coupler-supplied surface state and fluxes
  ("the principal modification to PCCM2 ... was to replace the lower
  boundary condition routine");
* the coupler computes the turbulent fluxes on the overlap grid each
  atmosphere step, runs the land/bucket/river/ice models, and accumulates
  the ocean forcing;
* the ocean is called once per 6 simulated hours (4x per day, Figure 2)
  with the time-averaged forcing;
* radiation is recomputed twice per simulated day.

Physics and coupling are applied as adjustments to the spectral state
between dynamics steps (process splitting), with moisture carried on the
grid and transported semi-Lagrangially as in PCCM2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.atmosphere.dynamics import AtmosphereState, SpectralDynamicalCore
from repro.atmosphere.physics import PhysicsSuite
from repro.atmosphere.physics.radiation import RadiationParams
from repro.atmosphere.spectral import SpectralTransform, Truncation
from repro.atmosphere.vertical import VerticalGrid
from repro.core.config import FoamConfig, test_config
from repro.coupler.coupler import CouplerState, FluxCoupler
from repro.coupler.seaice import SeaIceState
from repro.ocean.grid import OceanGrid, topography_by_name
from repro.ocean.model import OceanForcing, OceanModel, OceanState
from repro.ocean.slab import SlabOceanModel
from repro.perf.profiler import profile_section
from repro.util.constants import STEFAN_BOLTZMANN


@dataclass
class FoamState:
    """Complete prognostic state of the coupled system."""

    atm_prev: AtmosphereState
    atm_curr: AtmosphereState
    ocean: OceanState
    coupler: CouplerState
    time: float = 0.0


@dataclass
class CoupledDiagnostics:
    """Running diagnostics collected during an integration."""

    sst_sum: np.ndarray | None = None
    sst_count: int = 0
    precip_sum: np.ndarray | None = None
    history_sst: list = field(default_factory=list)   # monthly-ish SST means
    history_time: list = field(default_factory=list)

    def mean_sst(self) -> np.ndarray:
        if self.sst_count == 0:
            raise RuntimeError("no SST samples accumulated")
        return self.sst_sum / self.sst_count


class FoamModel:
    """The coupled FOAM system; one instance owns all three components."""

    def __init__(self, config: FoamConfig | None = None,
                 land_mask: np.ndarray | None = None,
                 depth: np.ndarray | None = None):
        self.config = config or test_config()
        cfg = self.config

        # One precision policy threads through every component constructor.
        policy = cfg.dtype_policy
        self.policy = policy
        self.transform = SpectralTransform(cfg.atm_nlat, cfg.atm_nlon,
                                           Truncation(cfg.atm_mmax),
                                           dtype=policy,
                                           backend=cfg.array_backend())
        self.vgrid = VerticalGrid.ccm_like(cfg.atm_nlev, dtype=policy)
        self.dycore = SpectralDynamicalCore(self.transform, self.vgrid,
                                            dt=cfg.atm_dt,
                                            robert=cfg.robert_filter,
                                            rotation_factor=cfg.rotation_factor)
        self.physics = PhysicsSuite(
            radiation=RadiationParams(solar_constant=cfg.solar_constant,
                                      subsolar_lon_deg=cfg.subsolar_lon_deg,
                                      co2_ppmv=cfg.co2_ppmv),
            radiation_interval=cfg.radiation_interval)

        self.ocean_grid = OceanGrid(nx=cfg.ocn_nx, ny=cfg.ocn_ny,
                                    nlev=cfg.ocn_nlev, dtype=policy,
                                    rotation_factor=cfg.rotation_factor)
        if land_mask is None or depth is None:
            land_mask, depth = topography_by_name(cfg.topography)(
                self.ocean_grid)
        if cfg.ocean_mode == "slab":
            self.ocean = SlabOceanModel(self.ocean_grid, land_mask, depth,
                                        cfg.ocean_params,
                                        mixed_layer_depth=cfg.mixed_layer_depth)
        else:
            self.ocean = OceanModel(self.ocean_grid, land_mask, depth,
                                    cfg.ocean_params)
        self.coupler = FluxCoupler(self.transform.lats, cfg.atm_nlon,
                                   self.ocean_grid.lats, cfg.ocn_nx,
                                   land_mask, rng_seed=cfg.seed + 7,
                                   dtype=policy)
        # Running ocean-forcing accumulator between ocean calls.  The
        # ensemble driver sets ``_ens_shape = (nens,)`` so the accumulator
        # (and nothing else constructed here) carries a member axis.
        self._ens_shape: tuple = ()
        self._reset_ocean_accumulator()
        # Most recent coupler bookkeeping (precip/evap/runoff totals);
        # refreshed every coupled_step so monitoring code (the scenario
        # climatology reducer) can read it without re-running physics.
        self.last_coupler_diagnostics = None

    # ------------------------------------------------------------------
    def _reset_ocean_accumulator(self) -> None:
        ny, nx = self.ocean_grid.ny, self.ocean_grid.nx
        self._acc = OceanForcing.zeros(ny, nx, dtype=self.policy.float_dtype,
                                       lead=self._ens_shape)
        self._acc_steps = 0

    def initial_state(self, seed: int | None = None,
                      perturb=None) -> FoamState:
        """Build the coupled initial state.

        ``perturb(atm)`` may mutate the atmosphere state in place before the
        leapfrog forward start — the ensemble driver injects per-member
        initial-condition noise here so the perturbation participates in the
        half-step exactly as it would in a standalone run.
        """
        seed = self.config.seed if seed is None else seed
        atm = self.dycore.initial_state("isothermal_rest", seed=seed,
                                        noise_amplitude=1e-8)
        # Moist initial atmosphere: ~60 % RH near the surface, drying rapidly
        # aloft (RH * sigma^2), hard-capped at 25 g/kg — without the vertical
        # taper the tiny saturation *pressure* aloft makes qsat explode as a
        # mixing ratio and its condensation heats the stratosphere by
        # hundreds of kelvin in one step.
        diag = self.dycore.diagnose(atm)
        from repro.util.thermo import saturation_mixing_ratio
        rh_profile = 0.6 * self.vgrid.sigma[:, None, None] ** 2
        atm.q = np.minimum(
            rh_profile * saturation_mixing_ratio(diag.temp, diag.pressure),
            0.025).astype(self.policy.float_dtype, copy=False)
        if perturb is not None:
            perturb(atm)
        ocn = self.ocean.initial_state(self.config.ocean_init)
        cpl = self.coupler.initial_state()
        if self.config.initial_ice_thickness > 0.0:
            cpl.ice = SeaIceState.uniform(~self.coupler.ocn_land_mask,
                                          self.config.initial_ice_thickness)
        prev = atm
        curr = self.dycore._forward_start(atm)
        return FoamState(atm_prev=prev, atm_curr=curr, ocean=ocn,
                         coupler=cpl, time=0.0)

    # ------------------------------------------------------------------
    # coupled-step phases
    #
    # ``coupled_step`` below recomposes these serially; the concurrent
    # driver (repro.parallel.coupled) distributes them over disjoint rank
    # pools.  Each phase runs identical array expressions in identical
    # order, so serial and concurrent float64 trajectories are bitwise
    # comparable.
    # ------------------------------------------------------------------
    def atm_diagnose(self, atm_curr: AtmosphereState):
        """Grid-space diagnostics of the current spectral state."""
        with profile_section("atmosphere"):
            return self.dycore.diagnose(atm_curr)

    def merge_surface(self, cpl_state: CouplerState, sst: np.ndarray, *,
                      t_air: np.ndarray, q_air: np.ndarray,
                      u_air: np.ndarray, v_air: np.ndarray, ps: np.ndarray):
        """Coupler phase: merged surface state + overlap-grid turbulent fluxes."""
        with profile_section("coupler"):
            surface = self.coupler.surface_state_for_atm(cpl_state, sst)
            turb = self.coupler.turbulent_fluxes(
                cpl_state, t_air=t_air, q_air=q_air, u_air=u_air,
                v_air=v_air, ps=ps, sst_celsius=sst)
        return surface, turb

    def _physics_kernel(self, diag, q, surface, external_fluxes, *,
                        time: float, rows: tuple[int, int] | None = None):
        """Column physics; ``rows=(lo, hi)`` restricts to a latitude band.

        Physics is column-local, so a band run is bitwise identical to the
        corresponding rows of a full-grid run (the atmosphere pool relies
        on this to split physics without splitting the spectral state).
        """
        cfg = self.config
        tr = self.transform
        if diag.temp.ndim == 4:
            return self._physics_kernel_batched(diag, q, surface,
                                                external_fluxes, time=time)
        if rows is None:
            return self.physics.compute(
                temp=diag.temp, q=q, u=diag.u, v=diag.v,
                pressure=diag.pressure, ps=diag.ps,
                geopotential=diag.geopotential, dsigma=self.vgrid.dsigma,
                surface=surface, dt=cfg.atm_dt, time=time,
                lats=tr.lats, lons=tr.lons, external_fluxes=external_fluxes)
        lo, hi = rows
        sl = slice(lo, hi)
        from repro.atmosphere.physics import SurfaceState
        sub = SurfaceState(t_sfc=surface.t_sfc[sl], albedo=surface.albedo[sl],
                           wetness=surface.wetness[sl], z0=surface.z0[sl],
                           ocean_mask=surface.ocean_mask[sl])
        ext = external_fluxes
        if ext is not None:
            ext = {k: v[sl] for k, v in ext.items()}
        return self.physics.compute(
            temp=diag.temp[:, sl], q=q[:, sl], u=diag.u[:, sl],
            v=diag.v[:, sl], pressure=diag.pressure[:, sl], ps=diag.ps[sl],
            geopotential=diag.geopotential[:, sl], dsigma=self.vgrid.dsigma,
            surface=sub, dt=cfg.atm_dt, time=time,
            lats=tr.lats[sl], lons=tr.lons, external_fluxes=ext)

    def _physics_kernel_batched(self, diag, q, surface, external_fluxes, *,
                                time: float):
        """Ensemble physics: fold members into the latitude axis.

        Physics is column-local, so running the batch as one wide grid of
        ``nens * nlat`` rows (with the latitude array tiled member-major) is
        bitwise identical per member to member-at-a-time calls — the same
        columns see the same elementwise arithmetic, just stacked.
        """
        from repro.atmosphere.physics import PhysicsTendencies, SurfaceState

        cfg = self.config
        tr = self.transform
        L, E, nlat, nlon = diag.temp.shape

        def fold(a):
            return a.reshape(a.shape[:-3] + (E * nlat, nlon))

        sub = SurfaceState(t_sfc=fold(surface.t_sfc),
                           albedo=fold(surface.albedo),
                           wetness=fold(surface.wetness), z0=fold(surface.z0),
                           ocean_mask=fold(surface.ocean_mask))
        ext = external_fluxes
        if ext is not None:
            ext = {k: fold(v) for k, v in ext.items()}
        phys = self.physics.compute(
            temp=fold(diag.temp), q=fold(q), u=fold(diag.u), v=fold(diag.v),
            pressure=fold(diag.pressure), ps=fold(diag.ps),
            geopotential=fold(diag.geopotential), dsigma=self.vgrid.dsigma,
            surface=sub, dt=cfg.atm_dt, time=time,
            lats=np.tile(tr.lats, E), lons=tr.lons, external_fluxes=ext)

        def unfold(a):
            if a is None:
                return None
            return a.reshape(a.shape[:-2] + (E, nlat, nlon))

        return PhysicsTendencies(
            dtdt=unfold(phys.dtdt), dqdt=unfold(phys.dqdt),
            dudt=unfold(phys.dudt), dvdt=unfold(phys.dvdt),
            precip_conv=unfold(phys.precip_conv),
            precip_strat=unfold(phys.precip_strat),
            fluxes={k: unfold(v) for k, v in phys.fluxes.items()},
            heating_sw=unfold(phys.heating_sw),
            heating_lw=unfold(phys.heating_lw))

    def _apply_tendencies_kernel(self, curr: AtmosphereState, dtdt, dudt,
                                 dvdt, dqdt) -> AtmosphereState:
        """Apply physics adjustments to the spectral state (process split)."""
        dt = self.config.atm_dt
        tr = self.transform
        new_curr = curr.copy()
        # One batched transform per tendency over every level (and member).
        new_curr.temp += dt * tr.analyze(dtdt)
        dv, dd = tr.vortdiv_from_uv(dudt, dvdt)
        new_curr.vort += dt * dv
        new_curr.div += dt * dd
        new_curr.q = np.maximum(curr.q + dt * dqdt, 0.0)
        return new_curr

    def atm_physics(self, diag, q, surface, external_fluxes, *,
                    time: float, rows: tuple[int, int] | None = None):
        """Physics phase with its own profiler framing (pool driver entry)."""
        with profile_section("atmosphere"):
            with profile_section("physics"):
                return self._physics_kernel(diag, q, surface, external_fluxes,
                                            time=time, rows=rows)

    def atm_apply_tendencies(self, curr: AtmosphereState, dtdt, dudt, dvdt,
                             dqdt) -> AtmosphereState:
        """Spectral-update phase with profiler framing (pool driver entry)."""
        with profile_section("atmosphere"):
            with profile_section("spectral_update"):
                return self._apply_tendencies_kernel(curr, dtdt, dudt, dvdt, dqdt)

    def atm_advance(self, state: FoamState, diag, surface, external_fluxes):
        """Full-grid physics + spectral update (the serial atmosphere phase)."""
        with profile_section("atmosphere"):
            with profile_section("physics"):
                phys = self._physics_kernel(diag, state.atm_curr.q, surface,
                                            external_fluxes, time=state.time)
            with profile_section("spectral_update"):
                new_curr = self._apply_tendencies_kernel(
                    state.atm_curr, phys.dtdt, phys.dudt, phys.dvdt, phys.dqdt)
        return new_curr, phys

    def accumulate_forcing(self, cpl_state: CouplerState, turb: dict,
                           surface, *, precip: np.ndarray,
                           sw_sfc: np.ndarray, lw_down: np.ndarray,
                           t_low1: np.ndarray, t_low2: np.ndarray,
                           dt: float):
        """Land/hydrology/rivers + ocean-forcing accumulation (coupler phase).

        ``sw_sfc``/``lw_down`` are the radiation outputs of the physics
        step; the turbulent pieces of the net surface flux come from
        ``turb["atm"]`` (the very arrays physics passed through via
        ``external_fluxes``), so a banded atmosphere pool only needs to
        gather precip and radiation back for the coupler.
        """
        t_sfc_atm = surface.t_sfc
        net_sfc = (sw_sfc + lw_down
                   - STEFAN_BOLTZMANN * t_sfc_atm**4
                   - turb["atm"]["shf"] - turb["atm"]["lhf"])
        with profile_section("coupler"):
            with profile_section("land_rivers"):
                new_cpl, discharge_atm, cpl_diags = self.coupler.step_land_and_rivers(
                    cpl_state, precip=precip, evap=turb["atm"]["evap"],
                    t_low1=t_low1, t_low2=t_low2,
                    net_land_flux=net_sfc, dt=dt)

            # --- accumulate ocean forcing -----------------------------------
            with profile_section("regrid_merge"):
                ov = self.coupler.overlap
                rad_ocn = self.coupler.surface_radiation_to_ocean(
                    sw_sfc=sw_sfc, lw_down=lw_down, t_sfc=t_sfc_atm)
                heat_ocn = rad_ocn - turb["ocn_turb_heat_loss"]
                precip_ocn = ov.to_ocn(np.where(self.coupler._water_overlap,
                                                ov.from_atm(precip), 0.0))
                discharge_ocn = self.coupler.discharge_to_ocean_grid(discharge_atm)
                fresh = precip_ocn - turb["ocn_evap"] + discharge_ocn

                self._acc.taux += turb["ocn_taux"]
                self._acc.tauy += turb["ocn_tauy"]
                self._acc.heat_flux += heat_ocn
                self._acc.freshwater += fresh
                self._acc_steps += 1
        return new_cpl, cpl_diags

    def coupling_due(self) -> bool:
        """True when a full averaging window has accumulated (ocean is due)."""
        return self._acc_steps >= self.config.atm_steps_per_coupling

    def ocean_forcing(self, cpl_state: CouplerState, sst: np.ndarray, *,
                      t_air_bot: np.ndarray):
        """Window-mean forcing + sea-ice step; resets the accumulator."""
        cfg = self.config
        n = self._acc_steps
        forcing = OceanForcing(self._acc.taux / n, self._acc.tauy / n,
                               self._acc.heat_flux / n,
                               self._acc.freshwater / n)
        # Sea ice first: it converts persistent heat loss at the clamp
        # into ice and shields the stress.
        ov = self.coupler.overlap
        t_air_ocn = ov.to_ocn(ov.from_atm(t_air_bot))
        with profile_section("coupler"):
            with profile_section("seaice"):
                new_cpl, ice_fw = self.coupler.step_sea_ice(
                    cpl_state, sst_celsius=sst,
                    ocean_heat_loss=-forcing.heat_flux,
                    t_air_on_ocn=t_air_ocn,
                    dt=cfg.ocean_coupling_interval)
        forcing.freshwater += ice_fw
        self._reset_ocean_accumulator()
        return new_cpl, forcing

    def ocean_advance(self, ocean_state: OceanState,
                      forcing: OceanForcing) -> OceanState:
        """The ocean's coupled call (6 simulated hours under the mean forcing)."""
        with profile_section("ocean"):
            return self.ocean.step(ocean_state, forcing)

    def atm_dynamics(self, atm_prev: AtmosphereState,
                     new_curr: AtmosphereState):
        """Semi-implicit spectral dynamics step (once per coupled step)."""
        with profile_section("atmosphere"):
            with profile_section("dynamics"):
                return self.dycore.step(atm_prev, new_curr)

    # ------------------------------------------------------------------
    def coupled_step(self, state: FoamState) -> FoamState:
        """One atmosphere step of the coupled system (30 simulated minutes).

        Profiler sections follow the event-simulator's decomposition
        (``calibrate_from_profile`` depends on these names): top-level
        ``atmosphere`` / ``coupler`` / ``ocean``, with ``dynamics`` under
        ``atmosphere`` entered exactly once per coupled step.
        """
        cfg = self.config
        dt = cfg.atm_dt
        curr = state.atm_curr
        diag = self.atm_diagnose(curr)
        sst = self.ocean.sst(state.ocean)

        # --- coupler: surface state and turbulent fluxes (overlap grid) ---
        surface, turb = self.merge_surface(
            state.coupler, sst, t_air=diag.temp[-1], q_air=curr.q[-1],
            u_air=diag.u[-1], v_air=diag.v[-1], ps=diag.ps)

        # --- atmosphere physics with coupler-owned surface fluxes ----------
        new_curr, phys = self.atm_advance(state, diag, surface, turb["atm"])

        precip = phys.precip_conv + phys.precip_strat

        # --- land, hydrology, rivers + ocean-forcing accumulation -----------
        new_cpl, _cpl_diags = self.accumulate_forcing(
            state.coupler, turb, surface, precip=precip,
            sw_sfc=phys.fluxes["sw_sfc"], lw_down=phys.fluxes["lw_down"],
            t_low1=diag.temp[-1], t_low2=diag.temp[-2], dt=dt)
        self.last_coupler_diagnostics = _cpl_diags

        new_ocean = state.ocean
        new_time = state.time + dt

        # --- ocean call (every 6 simulated hours) ---------------------------
        if self.coupling_due():
            new_cpl, forcing = self.ocean_forcing(new_cpl, sst,
                                                  t_air_bot=diag.temp[-1])
            new_ocean = self.ocean_advance(state.ocean, forcing)

        # --- atmosphere dynamics step ----------------------------------------
        new_prev, new_next = self.atm_dynamics(state.atm_prev, new_curr)
        return FoamState(atm_prev=new_prev, atm_curr=new_next,
                         ocean=new_ocean, coupler=new_cpl, time=new_time)

    # ------------------------------------------------------------------
    def run_days(self, state: FoamState, days: float,
                 diagnostics: CoupledDiagnostics | None = None,
                 sst_sample_interval: float = 86400.0,
                 observers: tuple = ()) -> FoamState:
        """Integrate the coupled system for ``days`` simulated days.

        Delegates to the run harness's single stepping loop
        (:func:`repro.runs.drive_steps`); ``diagnostics`` rides along as
        the legacy SST-sampling observer and ``observers`` attaches any
        further :class:`~repro.runs.StepObserver` s (history,
        checkpoints).
        """
        from repro.runs.harness import drive_steps
        from repro.runs.observers import CoupledDiagnosticsObserver

        nsteps = int(round(days * 86400.0 / self.config.atm_dt))
        obs = tuple(observers)
        if diagnostics is not None:
            obs = (CoupledDiagnosticsObserver(diagnostics,
                                              sst_sample_interval),) + obs
        return drive_steps(self, state, nsteps, obs)

    # ------------------------------------------------------------------
    # budgets
    # ------------------------------------------------------------------
    def global_water_inventory(self, state: FoamState) -> dict:
        """All water reservoirs (kg): atmosphere, soil, snow, rivers, ice."""
        tr = self.transform
        diag = self.dycore.diagnose(state.atm_curr)
        from repro.util.constants import GRAVITY

        col_q = np.tensordot(self.vgrid.dsigma, state.atm_curr.q, axes=(0, 0)) \
            * diag.ps / GRAVITY
        area_atm = self.coupler.atm_cell_areas
        from repro.util.constants import RHO_WATER
        return {
            "atmosphere": float(np.sum(col_q * area_atm)),
            "soil": float(np.sum(state.coupler.hydrology.soil_moisture
                                 * RHO_WATER * area_atm)),
            "snow": float(np.sum(state.coupler.hydrology.snow_depth
                                 * RHO_WATER * area_atm)),
            "rivers": self.coupler.river.total_storage() * 1000.0,
        }
