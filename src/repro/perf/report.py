"""Measured time-allocation report: the wall-clock analogue of Figure 2.

``python -m repro.perf.report`` runs a short coupled integration with the
profiler enabled, prints the hierarchical per-section table, and shows the
event-simulator calibration derived from it
(:func:`repro.perf.costmodel.calibrate_from_profile`) — closing the loop
between the real Python components and the modeled 1997 machine::

    PYTHONPATH=src python -m repro.perf.report --days 0.5
    PYTHONPATH=src python -m repro.perf.report --json profile.json
    PYTHONPATH=src python -m repro.perf.report --load profile.json
    PYTHONPATH=src python -m repro.perf.report --atm-ranks 2 --ocn-ranks 1

With ``--atm-ranks`` the run executes *concurrently* on an atmosphere
pool, whose rank 0 also runs the coupler, beside one ocean rank
(:func:`repro.parallel.coupled.run_concurrent_coupled`);
the table is then the merged per-rank profile, followed by the blocking-wait
summary and the concurrent calibration
(:func:`repro.perf.costmodel.calibrate_concurrent_from_profile`).

This module imports :mod:`repro.core` (the whole coupled model), so it is
*not* re-exported from ``repro.perf`` — the instrumented component modules
import ``repro.perf.profiler`` and must not be pulled in circularly.
"""

from __future__ import annotations

import argparse
import sys

from repro.perf.costmodel import (
    calibrate_concurrent_from_profile,
    calibrate_from_profile,
)
from repro.perf.profiler import RunProfile, enable_profiling, take_profile


def kernel_cache_stats() -> dict:
    """Kernel-cache health: Legendre plan builds/hits + workspace totals.

    Snapshotted into profile metadata so ``--json`` output (and saved
    profiles) carry the cache counters alongside the section table.
    """
    from repro.atmosphere.spectral import legendre_plan_stats
    from repro.backend import workspace_totals

    return {"legendre_plan": legendre_plan_stats(),
            "workspace": workspace_totals()}


def format_kernel_caches(profile: RunProfile) -> str:
    """Render the kernel-cache health block from profile metadata."""
    stats = (profile.meta or {}).get("kernel_caches")
    if not stats:
        return "kernel caches: not recorded in this profile"
    plan = stats.get("legendre_plan", {})
    ws = stats.get("workspace", {})
    req = ws.get("hits", 0) + ws.get("misses", 0)
    hit_rate = ws.get("hits", 0) / req if req else 0.0
    return "\n".join([
        "kernel caches:",
        f"  legendre plans   {plan.get('builds', 0)} built, "
        f"{plan.get('hits', 0)} cache hits",
        f"  workspace        {ws.get('hits', 0)} hits / "
        f"{ws.get('misses', 0)} misses ({hit_rate:.1%} hit rate), "
        f"{ws.get('buffers', 0)} buffers, "
        f"{ws.get('nbytes', 0) / 1e6:.1f} MB resident",
    ])


def profile_coupled_run(days: float = 1.0, config: str = "test",
                        seed: int | None = None,
                        dtype: str | None = None,
                        backend: str | None = None) -> RunProfile:
    """Run the coupled model for ``days`` with profiling on; return the profile.

    ``config`` selects ``repro.core.config``'s ``test``/``small``/``paper``
    resolution.  ``dtype``/``backend`` pick the array precision/backend
    (default: the ``FOAM_DTYPE``/``FOAM_BACKEND`` environment policy); the
    resolved dtype is recorded in the profile metadata so
    :func:`calibrate_from_profile` can size communication volumes.  Model
    construction and spin-up state building are *outside* the profiling
    window; only ``coupled_step`` work is measured.
    """
    # Deferred import: keeps repro.perf importable from the instrumented
    # component modules (repro.core pulls in all of them).
    from repro.core.config import paper_config, small_config, test_config
    from repro.core.foam import FoamModel

    factories = {"test": test_config, "small": small_config,
                 "paper": paper_config}
    if config not in factories:
        raise ValueError(f"unknown config {config!r}; pick from "
                         f"{sorted(factories)}")
    cfg = factories[config]()
    if seed is not None:
        cfg.seed = seed
    if dtype is not None:
        cfg.dtype = dtype
    if backend is not None:
        cfg.backend = backend
    cfg.array_backend()          # fail fast if the backend is unavailable
    model = FoamModel(cfg)
    state = model.initial_state()
    nsteps = max(1, int(round(days * 86400.0 / cfg.atm_dt)))

    prof = enable_profiling()
    prof.reset()
    try:
        for _ in range(nsteps):
            state = model.coupled_step(state)
    finally:
        prof.disable()
    return take_profile(
        label=f"coupled {config} run, {nsteps} steps ({days:g} days)",
        meta={"config": config, "days": days, "nsteps": nsteps,
              "atm_dt": cfg.atm_dt,
              "atm_grid": [cfg.atm_nlat, cfg.atm_nlon, cfg.atm_nlev],
              "ocn_grid": [cfg.ocn_ny, cfg.ocn_nx, cfg.ocn_nlev],
              "dtype": cfg.dtype_policy.name,
              "backend": cfg.array_backend().name,
              "kernel_caches": kernel_cache_stats()})


def profile_ensemble_run(days: float = 1.0, config: str = "test",
                         nens: int = 4, seed: int | None = None,
                         dtype: str | None = None,
                         backend: str | None = None) -> RunProfile:
    """Profile a *batched* ensemble run: ``nens`` members per coupled step.

    Same profiling window as :func:`profile_coupled_run` (construction and
    initial states excluded), but every ``coupled_step`` advances all
    members at once through the leading member axis, so per-section times
    are the batch's — divide by ``nens`` for per-member cost.
    """
    from repro.core.config import paper_config, small_config, test_config
    from repro.core.ensemble import EnsembleConfig, FoamEnsemble

    factories = {"test": test_config, "small": small_config,
                 "paper": paper_config}
    if config not in factories:
        raise ValueError(f"unknown config {config!r}; pick from "
                         f"{sorted(factories)}")
    if nens < 1:
        raise ValueError(f"nens must be >= 1, got {nens}")
    cfg = factories[config]()
    if seed is not None:
        cfg.seed = seed
    if dtype is not None:
        cfg.dtype = dtype
    if backend is not None:
        cfg.backend = backend
    cfg.array_backend()          # fail fast if the backend is unavailable
    ens = FoamEnsemble(EnsembleConfig(nens=nens, base=cfg))
    state = ens.initial_state()
    nsteps = max(1, int(round(days * 86400.0 / cfg.atm_dt)))

    prof = enable_profiling()
    prof.reset()
    try:
        for _ in range(nsteps):
            state = ens.step(state)
    finally:
        prof.disable()
    return take_profile(
        label=f"batched ensemble {config} run, nens={nens}, "
              f"{nsteps} steps ({days:g} days)",
        meta={"config": config, "days": days, "nsteps": nsteps,
              "nens": nens, "atm_dt": cfg.atm_dt,
              "atm_grid": [cfg.atm_nlat, cfg.atm_nlon, cfg.atm_nlev],
              "ocn_grid": [cfg.ocn_ny, cfg.ocn_nx, cfg.ocn_nlev],
              "dtype": cfg.dtype_policy.name,
              "backend": cfg.array_backend().name,
              "kernel_caches": kernel_cache_stats()})


def profile_concurrent_run(days: float = 1.0, config: str = "test",
                           n_atm: int = 2, n_ocn: int = 1,
                           substrate: str | None = None):
    """Run the pool-split coupled driver with per-rank profiling.

    Returns the :class:`repro.parallel.coupled.ConcurrentCoupledResult`
    (merged profile on ``.profile``, per-rank ones on ``.profiles``).
    ``substrate`` picks the communicator implementation: ``"thread"``
    (default) or ``"process"`` for real forked rank processes that use
    every core the layout asks for.
    """
    from repro.core.config import paper_config, small_config, test_config
    from repro.parallel.coupled import PoolLayout, run_concurrent_coupled

    factories = {"test": test_config, "small": small_config,
                 "paper": paper_config}
    if config not in factories:
        raise ValueError(f"unknown config {config!r}; pick from "
                         f"{sorted(factories)}")
    return run_concurrent_coupled(config=factories[config](), days=days,
                                  layout=PoolLayout(n_atm=n_atm, n_ocn=n_ocn),
                                  profile=True, substrate=substrate)


def format_waits(result) -> str:
    """Render a concurrent run's blocking-recv wait accounting."""
    lines = [f"blocking waits over {result.wall_seconds:.3f} s wall "
             f"({result.nsteps} steps, {result.substrate} ranks):"]
    for kind in sorted(result.waits):
        lines.append(f"  {kind:12s} {result.waits[kind]:10.3f} s")
    lines.append(f"  ocean busy  {result.ocean_busy_seconds:10.3f} s "
                 f"({result.hidden_fraction:.0%} hidden under the "
                 "atmosphere/coupler overlap)")
    return "\n".join(lines)


def format_concurrent_calibration(profile: RunProfile, n_atm: int) -> str:
    """Render the sync-schedule costs calibrated from a merged profile."""
    try:
        mc = calibrate_concurrent_from_profile(profile, n_atm)
    except ValueError as err:
        return f"concurrent calibration unavailable: {err}"
    lines = [
        "calibrated concurrent-schedule costs (summed-rank seconds):",
        f"  ordinary atmosphere step  {mc.step_seconds:12.6f}",
        f"  radiation atmosphere step {mc.radiation_step_seconds:12.6f}",
        f"  coupler per step          {mc.coupler_seconds:12.6f}",
        f"  dynamics overlap window   {mc.dynamics_seconds:12.6f}",
        f"  ocean call                {mc.ocean_call_seconds:12.6f}",
        "feed these into simulate_coupled_day(..., measured=..., "
        "schedule='sync') or predict_concurrent_speedup(...).",
    ]
    return "\n".join(lines)


def format_calibration(profile: RunProfile) -> str:
    """Render the event-simulator costs calibrated from ``profile``."""
    try:
        mc = calibrate_from_profile(profile)
    except ValueError as err:
        return f"calibration unavailable: {err}"
    lines = [
        "calibrated event-simulator costs (serial seconds per section):",
        f"  ordinary atmosphere step  {mc.step_seconds:12.6f}",
        f"  radiation atmosphere step {mc.radiation_step_seconds:12.6f}"
        f"  ({mc.radiation_step_seconds / mc.step_seconds:.2f}x ordinary)",
        f"  coupler per step          {mc.coupler_seconds:12.6f}",
        f"  ocean call                {mc.ocean_call_seconds:12.6f}",
    ]
    if mc.transpose_seconds > 0.0:
        lines.append(f"  transpose per step        {mc.transpose_seconds:12.6f}")
    else:
        lines.append("  transpose: not exercised (serial run); simulator "
                     "falls back to byte-volume model")
    lines.append("feed these into simulate_coupled_day(..., measured=...) "
                 "to replay the run on a modeled machine.")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.report",
        description="Measured per-section time allocation of a coupled run "
                    "(the wall-clock analogue of the paper's Figure 2).")
    parser.add_argument("--days", type=float, default=1.0,
                        help="simulated days to integrate (default: 1)")
    parser.add_argument("--config", default="test",
                        choices=("test", "small", "paper"),
                        help="model resolution (default: test)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's RNG seed")
    parser.add_argument("--dtype", default=None,
                        choices=("float64", "float32"),
                        help="array precision (default: FOAM_DTYPE or float64)")
    parser.add_argument("--backend", default=None,
                        help="array backend (default: FOAM_BACKEND or numpy)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the RunProfile as JSON to PATH")
    parser.add_argument("--load", metavar="PATH", default=None,
                        help="render a previously saved profile instead of "
                             "running the model")
    parser.add_argument("--min-fraction", type=float, default=0.0,
                        help="hide sections below this share of total time")
    parser.add_argument("--atm-ranks", type=int, default=None, metavar="N",
                        help="run concurrently with N atmosphere-pool ranks "
                             "(rank 0 also runs the coupler)")
    parser.add_argument("--ocn-ranks", type=int, default=1, metavar="N",
                        help="ocean ranks for --atm-ranks mode; must be 1: "
                             "the ocean call is not decomposed, so extra "
                             "ranks would only idle")
    parser.add_argument("--substrate", default=None,
                        choices=("thread", "process"),
                        help="communicator substrate for --atm-ranks mode: "
                             "rank threads or real forked processes "
                             "(default: FOAM_COMM or thread)")
    parser.add_argument("--ensemble", type=int, default=None, metavar="N",
                        help="profile a batched N-member ensemble run "
                             "(section times are for the whole batch)")
    args = parser.parse_args(argv)

    if args.ensemble is not None and args.atm_ranks is not None:
        parser.error("--ensemble and --atm-ranks are mutually exclusive")
    if args.substrate is not None and args.atm_ranks is None:
        parser.error("--substrate requires --atm-ranks (it picks the "
                     "communicator for the concurrent coupled run)")

    result = None
    if args.load is not None:
        profile = RunProfile.load(args.load)
    elif args.ensemble is not None:
        profile = profile_ensemble_run(days=args.days, config=args.config,
                                       nens=args.ensemble, seed=args.seed,
                                       dtype=args.dtype,
                                       backend=args.backend)
    elif args.atm_ranks is not None:
        result = profile_concurrent_run(days=args.days, config=args.config,
                                        n_atm=args.atm_ranks,
                                        n_ocn=args.ocn_ranks,
                                        substrate=args.substrate)
        profile = result.profile

    else:
        profile = profile_coupled_run(days=args.days, config=args.config,
                                      seed=args.seed, dtype=args.dtype,
                                      backend=args.backend)

    print(profile.format_table(min_fraction=args.min_fraction))
    print()
    if result is not None:
        print(format_waits(result))
        print()
        print(format_concurrent_calibration(profile, args.atm_ranks))
    else:
        print(format_calibration(profile))
    print()
    print(format_kernel_caches(profile))

    if args.json is not None:
        profile.save(args.json)
        print(f"\nprofile written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
