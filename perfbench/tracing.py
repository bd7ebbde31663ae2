"""In-memory span tracing of the model's layers, from outside the model.

The tracer wraps public functions of the ``repro`` layers (class methods
and two module-level names) for the duration of a traced run and records
one span per call: ``[name, start, end, parent, run_id]``.  Nothing inside
``src/`` is instrumented; :func:`install` patches and :func:`uninstall`
restores the original attributes, so untraced runs execute pristine code.

Concurrent runs fork their rank processes.  The wrapped
``repro.parallel.coupled.run_ranks`` makes each forked rank start an empty
span list and return its spans with the rank's result, so the parent
receives every rank's spans through the existing result channel.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

#: (module, class or None for a module global, attribute, span name).
TARGETS = (
    ("repro.core.foam", "FoamModel", "coupled_step", "foam.coupled_step"),
    ("repro.core.foam", "FoamModel", "atm_diagnose", "foam.atm_diagnose"),
    ("repro.core.foam", "FoamModel", "merge_surface", "foam.merge_surface"),
    ("repro.core.foam", "FoamModel", "atm_advance", "foam.atm_advance"),
    ("repro.core.foam", "FoamModel", "accumulate_forcing",
     "foam.accumulate_forcing"),
    ("repro.core.foam", "FoamModel", "ocean_forcing", "foam.ocean_forcing"),
    ("repro.core.foam", "FoamModel", "ocean_advance", "foam.ocean_advance"),
    ("repro.core.foam", "FoamModel", "atm_dynamics", "foam.atm_dynamics"),
    ("repro.atmosphere.dynamics", "SpectralDynamicalCore", "step",
     "dynamics.step"),
    ("repro.atmosphere.dynamics", "SpectralDynamicalCore", "diagnose",
     "dynamics.diagnose"),
    # The dynamical core calls the name it imported into its own module.
    ("repro.atmosphere.dynamics", None, "advect_semilagrangian",
     "semilag.advect_semilagrangian"),
    ("repro.atmosphere.physics.driver", "PhysicsSuite", "compute",
     "physics.compute"),
    *(("repro.atmosphere.spectral", "SpectralTransform", m, f"spectral.{m}")
      for m in ("analyze", "synthesize", "synthesize_many",
                "uv_from_vortdiv", "vortdiv_from_uv", "gradient")),
    *(("repro.coupler.coupler", "FluxCoupler", m, f"coupler.{m}")
      for m in ("surface_state_for_atm", "turbulent_fluxes",
                "step_land_and_rivers", "step_sea_ice")),
    ("repro.ocean.model", "OceanModel", "step", "ocean.step"),
    ("repro.ocean.barotropic", "BarotropicSolver", "step", "barotropic.step"),
    ("repro.core.history", "HistoryWriter", "record", "history.record"),
    ("repro.core.history", "HistoryWriter", "flush", "history.flush"),
    # The checkpoint observer calls the name it imported into its module.
    ("repro.runs.observers", None, "save_restart", "history.save_restart"),
)

SPAN_NAMES = tuple(t[3] for t in TARGETS)

#: Counts taken from a wrapped call's return value.
RESULT_COUNTS = {
    # BarotropicSolver.step returns (eta, ubar, vbar, n_substeps).
    "barotropic.step": ("barotropic.substeps", lambda out: out[3]),
}


class Tracer:
    """Spans and counts of one process, kept in memory until written out.

    Spans are lists ``[name, start, end, parent, run_id]``; ``parent`` is
    the index of the enclosing span in :attr:`spans` (-1 for a root).
    The tracer is single-threaded: each forked rank has its own copy.
    """

    def __init__(self):
        self._undo: list[tuple] = []
        self.reset("")

    def reset(self, run_id: str) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.run_id = run_id

    def absorb(self, spans: list[list], counts: dict) -> None:
        """Append another process's spans, re-basing their parent indices."""
        base = len(self.spans)
        for name, t0, t1, parent, run_id in spans:
            self.spans.append([name, t0, t1,
                               parent + base if parent >= 0 else -1, run_id])
        self.counts.update(counts)

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.run_id]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[count[0]] += count[1](out)
            return out

        return traced

    def _wrap_run_ranks(self, run_ranks):
        @functools.wraps(run_ranks)
        def traced_run_ranks(size, fn, **kwargs):
            if kwargs.get("substrate") != "process":
                raise ValueError("rank tracing needs the process substrate: "
                                 "thread ranks would share one span stack")
            run_id = self.run_id

            def rank_fn(comm, *args):
                # A forked copy of the parent's tracer: start it empty.
                self.reset(f"{run_id}/rank{comm.rank}")
                out = fn(comm, *args)
                out["perfbench_trace"] = (self.spans, dict(self.counts))
                return out

            results = run_ranks(size, rank_fn, **kwargs)
            for out in results:
                self.absorb(*out.pop("perfbench_trace"))
            return results

        return traced_run_ranks

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` restores them."""
        for module, owner, attr, name in TARGETS:
            obj = importlib.import_module(module)
            if owner is not None:
                obj = getattr(obj, owner)
            original = obj.__dict__[attr]
            self._undo.append((obj, attr, original))
            setattr(obj, attr, self._wrap(name, original))
        coupled = importlib.import_module("repro.parallel.coupled")
        self._undo.append((coupled, "run_ranks", coupled.run_ranks))
        coupled.run_ranks = self._wrap_run_ranks(coupled.run_ranks)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((t1 - t0) - covered)
    return out


def subtree_closure(spans: list[list], selfs: list[float],
                    root_name: str) -> tuple[float, float]:
    """(sum of self times under every ``root_name`` span, their inclusive sum).

    The two agree when spans nest properly: the ledger then accounts for
    every second of the root's wall exactly once.
    """
    root_of = [-1] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        # Parents precede children in the list, so one pass suffices.
        if name == root_name:
            root_of[i] = i
        elif parent >= 0:
            root_of[i] = root_of[parent]
    inclusive = sum(t1 - t0 for name, t0, t1, _, _ in spans
                    if name == root_name)
    under = sum(s for s, r in zip(selfs, root_of) if r >= 0)
    return under, inclusive
