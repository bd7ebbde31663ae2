"""Concurrent coupled execution benchmark (ISSUE 5): pool-split speedup.

Times the same trajectory twice — serially (one thread stepping
``FoamModel.coupled_step``) and concurrently on disjoint rank pools
(2 atmosphere ranks, rank 0 also coupling, + 1 ocean) — and checks the
calibrated event simulator's prediction of the pool-split speedup against
the functional measurement.  On the GIL-bound simulated-MPI substrate the functional
"speedup" at test-config size is typically *below* 1 (the replicated
spectral work is serialized by the interpreter); the acceptance bar is
that the calibrated prediction tracks the functional number within 25 %,
i.e. the event simulator understands the schedule it is extrapolating.

The benchmark also carries a **per-substrate dimension** (ISSUE 7): the
identical pool layout runs once on rank threads and once on real forked
rank processes (``substrate="process"``), both bitwise-equal to the serial
trajectory, and the headline number is the process-over-thread day-wall
speedup.  On a multi-core host the process substrate escapes the GIL and
must deliver at least 1.5x; on single-core machines (or under
``FOAM_BENCH_FAST``) the ratio is recorded but not gated, since there is
no parallel hardware for the forked ranks to use.

Persists ``BENCH_coupled.json`` (set ``BENCH_COUPLED_PATH`` to move it):
serial vs concurrent wall time per substrate, the process-over-thread
speedup, per-kind idle/wait accounting, overlap (hidden ocean compute),
and the prediction comparison.
"""

import json
import os
import time

import numpy as np

from conftest import report
from repro.core.config import test_config as _test_config
from repro.core.foam import FoamModel
from repro.parallel.coupled import PoolLayout, run_concurrent_coupled
from repro.perf.costmodel import (
    AtmosphereCost,
    OceanCost,
    calibrate_concurrent_from_profile,
    calibrate_from_profile,
)
from repro.perf.eventsim import predict_concurrent_speedup
from repro.perf.profiler import Profiler, thread_profiler

LAYOUT = PoolLayout(n_atm=2, n_ocn=1)


def _coupled_steps() -> int:
    # Two simulated days normally; one under the CI smoke job.  Both are
    # whole days, so radiation cadence matches the event simulator's.
    return 24 if os.environ.get("FOAM_BENCH_FAST") else 48


def _serial_run(cfg, nsteps: int) -> dict:
    model = FoamModel(cfg)
    state = model.initial_state()
    prof = Profiler(enabled=True)
    t0 = time.perf_counter()
    with thread_profiler(prof):
        for _ in range(nsteps):
            state = model.coupled_step(state)
    wall = time.perf_counter() - t0
    return {"state": state, "wall": wall,
            "profile": prof.snapshot(label="serial bench",
                                     meta={"dtype": cfg.dtype_policy.name})}


def test_concurrent_coupled_speedup(benchmark):
    nsteps = _coupled_steps()
    cfg = _test_config()

    # Best-of-two on both sides: the prediction is judged against wall
    # clocks, so shave scheduler noise off each measurement.
    serial = min((_serial_run(cfg, nsteps) for _ in range(2)),
                 key=lambda r: r["wall"])
    conc = min((run_concurrent_coupled(config=cfg, nsteps=nsteps,
                                       layout=LAYOUT, profile=True,
                                       substrate="thread")
                for _ in range(2)),
               key=lambda r: r.wall_seconds)
    conc_proc = min((run_concurrent_coupled(config=cfg, nsteps=nsteps,
                                            layout=LAYOUT,
                                            substrate="process")
                     for _ in range(2)),
                    key=lambda r: r.wall_seconds)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # Both substrates' trajectories are the serial one (bitwise at
    # float64); guard the timing numbers with a cheap equivalence check.
    for c in (conc, conc_proc):
        assert np.array_equal(c.state.atm_curr.vort,
                              serial["state"].atm_curr.vort)
        assert np.array_equal(c.state.ocean.temp,
                              serial["state"].ocean.temp)

    functional = serial["wall"] / conc.wall_seconds
    proc_speedup = conc.wall_seconds / conc_proc.wall_seconds
    cpu_count = os.cpu_count() or 1
    serial_costs = calibrate_from_profile(serial["profile"])
    conc_costs = calibrate_concurrent_from_profile(conc.profile,
                                                   n_atm_ranks=LAYOUT.n_atm)
    atm = AtmosphereCost(nlat=cfg.atm_nlat, nlon=cfg.atm_nlon,
                         nlev=cfg.atm_nlev, mmax=cfg.atm_mmax, dt=cfg.atm_dt)
    ocn = OceanCost(nx=cfg.ocn_nx, ny=cfg.ocn_ny, nlev=cfg.ocn_nlev,
                    dt_long=cfg.ocean_coupling_interval)
    pred = predict_concurrent_speedup(serial_costs, conc_costs,
                                      LAYOUT.n_atm, LAYOUT.n_ocn,
                                      atm=atm, ocn=ocn)
    rel_err = abs(functional - pred["speedup"]) / pred["speedup"]

    out_path = os.environ.get("BENCH_COUPLED_PATH", "BENCH_coupled.json")
    payload = {
        "config": "test",
        "nsteps": nsteps,
        "cpu_count": cpu_count,
        "layout": {"n_atm": LAYOUT.n_atm, "n_ocn": LAYOUT.n_ocn,
                   "world_size": LAYOUT.world_size},
        "serial_wall_seconds": serial["wall"],
        "concurrent_wall_seconds": conc.wall_seconds,
        "functional_speedup": functional,
        "substrates": {
            "thread": {"wall_seconds": conc.wall_seconds,
                       "day_wall_seconds": conc.wall_seconds * 24 / nsteps,
                       "speedup_vs_serial": functional},
            "process": {"wall_seconds": conc_proc.wall_seconds,
                        "day_wall_seconds": conc_proc.wall_seconds * 24 / nsteps,
                        "speedup_vs_serial":
                            serial["wall"] / conc_proc.wall_seconds},
        },
        "process_over_thread_speedup": proc_speedup,
        "predicted": pred,
        "prediction_rel_err": rel_err,
        "rank_walls": conc.rank_walls,
        "waits": conc.waits,
        "rank_waits": conc.rank_waits,
        "ocean_busy_seconds": conc.ocean_busy_seconds,
        "overlap_seconds": conc.overlap_seconds,
        "hidden_fraction": conc.hidden_fraction,
        "workspace_stats": conc.ws_stats,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    report(f"Ecoupled: concurrent pool split (test config, {nsteps} steps)", [
        ("serial wall", "baseline", f"{serial['wall']:.3f} s"),
        ("concurrent wall", "measured", f"{conc.wall_seconds:.3f} s"),
        ("functional speedup", "GIL-bound", f"{functional:.3f}x"),
        ("process wall", "measured", f"{conc_proc.wall_seconds:.3f} s"),
        ("process/thread speedup", ">= 1.5x multi-core",
         f"{proc_speedup:.3f}x ({cpu_count} cpus)"),
        ("predicted speedup", "within 25%", f"{pred['speedup']:.3f}x"),
        ("prediction rel err", "<= 0.25", f"{rel_err:.3f}"),
        ("ocean compute hidden", "-> 1.0", f"{conc.hidden_fraction:.2f}"),
        ("coupled artifact", "BENCH_coupled.json", out_path),
    ])

    # ISSUE 5 acceptance: calibrated prediction within 25 % of functional.
    assert rel_err <= 0.25, (
        f"functional {functional:.3f}x vs predicted {pred['speedup']:.3f}x "
        f"(rel err {rel_err:.3f})")
    # ISSUE 7 acceptance: on a host with a core per rank, real processes
    # beat GIL-bound threads by >= 1.5x at the identical pool layout.  On
    # smaller machines (and in the fast smoke run) the ratio is recorded
    # in the payload but there is no parallelism to gate on.
    if cpu_count >= LAYOUT.world_size and not os.environ.get("FOAM_BENCH_FAST"):
        assert proc_speedup >= 1.5, (
            f"process substrate only {proc_speedup:.3f}x over threads on "
            f"{cpu_count} cpus (layout needs {LAYOUT.world_size})")
    assert os.path.exists(out_path)
