"""The benchmark's workloads: each turns a seed into one ``RunPlan``.

The seed maps to ``FoamConfig.seed``; nothing else about the inputs
varies.  Every plan integrates :data:`DAYS` simulated days, the shortest
span that ends on a safe checkpoint boundary at both resolutions and so
holds the model's full cadence (one radiation call, two ocean calls).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

DAYS = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    resolution: str            # "paper" or "test"
    mode: str = "serial"
    nens: int = 1
    writes: bool = False       # streams history and checkpoints

    def config(self, seed: int):
        from repro.core.config import paper_config, test_config
        base = paper_config() if self.resolution == "paper" else test_config()
        return dataclasses.replace(base, seed=seed)

    def plan(self, seed: int, out_dir: str | None = None):
        """The workload's plan; ``out_dir`` receives history and checkpoints."""
        from repro.runs import CheckpointSpec, HistorySpec, RunPlan

        cfg = self.config(seed)
        kwargs = {}
        if self.mode == "ensemble":
            kwargs.update(nens=self.nens, ic_perturbation=1e-8)
        if self.mode == "concurrent":
            kwargs.update(substrate="process", n_atm=1, n_ocn=1)
        if self.writes:
            if out_dir is None:
                raise ValueError(f"{self.name} writes output: pass out_dir")
            # History every coupling window, a checkpoint at every safe
            # boundary.
            kwargs.update(
                history=HistorySpec(
                    f"{out_dir}/history",
                    interval_days=cfg.ocean_coupling_interval / 86400.0),
                checkpoint=CheckpointSpec(
                    f"{out_dir}/ckpt",
                    interval_days=(cfg.checkpoint_boundary_steps
                                   * cfg.atm_dt / 86400.0)))
        return RunPlan(config=cfg, days=DAYS, mode=self.mode, **kwargs)

    def reference(self) -> "Workload | None":
        """The plan whose final state this one must reproduce bitwise."""
        if self.mode == "concurrent":
            return SERIAL_PAPER
        return None


#: The paper-resolution serial run: the single-process baseline and the
#: reference concurrent_paper must reproduce bitwise.  ``run.py`` accepts
#: it, but BENCHMARK.json does not list it: on a shared 2-core host its
#: wall spread too widely across runs (quartile spread up to 0.28 of the
#: median over 10 runs) for a run of under a minute to steady it.
SERIAL_PAPER = Workload(
    "serial_paper",
    "paper_config serial, no output: the single-process baseline and "
    "concurrent_paper's bitwise reference; foam.*, ocean.* and coupler.* "
    "move realtime_x here",
    resolution="paper")

#: The workloads BENCHMARK.json lists, in its order.
WORKLOADS = {w.name: w for w in (
    Workload(
        "ensemble16_test",
        "test_config batched at nens=16 with history and checkpoints: "
        "foam.*, dynamics/semilag/physics/spectral.*, coupler.*, backend.* "
        "and history.* move realtime_x here; the only writer",
        resolution="test", mode="ensemble", nens=16, writes=True),
    Workload(
        "concurrent_paper",
        "serial_paper on process ranks (1 atm, 1 cpl, 1 ocn), the paper's "
        "schedule: parallel.* move realtime_x only here, ocean.* via "
        "parallel.wait.sst, atmosphere spans via the atm rank",
        resolution="paper", mode="concurrent"),
)}

#: Every workload ``run.py --workload`` accepts; ``all`` runs them in order.
ALL_WORKLOADS = {SERIAL_PAPER.name: SERIAL_PAPER, **WORKLOADS}
