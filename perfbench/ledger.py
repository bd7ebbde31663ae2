"""The per-layer ledger: metric registry and the numbers behind it.

:data:`PER_LAYER` is the registry ``BENCHMARK.json`` lists under
``per_layer``: every metric's unit, which direction is better, and which
end-to-end metric on which workload it should move (``run.py`` refuses to
start when the two disagree).  Metrics in unit ``count`` repeat exactly
from run to run; a later change may cite them as counts, never as a
speed-up.  Every workload reports every metric; a layer the workload does
not run reads 0, except ``parallel.rank_wall_max_s``, which for a single
process is that process's wall.
"""

from __future__ import annotations

import statistics
from collections import Counter

from tracing import SPAN_NAMES, self_times, subtree_closure

FOAM_PHASES = tuple(n for n in SPAN_NAMES if n.startswith("foam."))

_MOVES = {
    "foam": "realtime_x on serial_paper and ensemble16_test; on "
            "concurrent_paper the ranks run the phases but never "
            "coupled_step or atm_advance",
    "dynamics": "realtime_x on ensemble16_test most, serial_paper second; "
                "concurrent_paper only via the atmosphere rank's critical "
                "path",
    "coupler": "realtime_x on ensemble16_test and serial_paper; "
               "concurrent_paper via the coupler rank",
    "ocean": "realtime_x on serial_paper; little on ensemble16_test; "
             "concurrent_paper only via parallel.wait.sst_s_per_day",
    "backend": "setup_s and peak_rss_mb on every workload; realtime_x on "
               "ensemble16_test",
    "history": "realtime_x on ensemble16_test only",
    "parallel": "realtime_x on concurrent_paper only",
    "trace": "no end-to-end metric: the cost of tracing itself",
}
_LAYER_OF = {"foam": "foam", "dynamics": "dynamics", "semilag": "dynamics",
             "physics": "dynamics", "spectral": "dynamics",
             "coupler": "coupler", "ocean": "ocean", "barotropic": "ocean",
             "history": "history"}


def _registry() -> dict[str, tuple[str, str, str]]:
    reg: dict[str, tuple[str, str, str]] = {}
    for span in SPAN_NAMES:
        moves = _MOVES[_LAYER_OF[span.split(".")[0]]]
        reg[f"{span}.calls"] = ("count", "lower", moves)
        reg[f"{span}.self_s_per_mday"] = ("s/member-day", "lower", moves)
        if span in FOAM_PHASES:
            reg[f"{span}.share"] = ("fraction", "lower", moves)
    reg["barotropic.substeps"] = ("count", "lower", _MOVES["ocean"])
    for name, unit, better in (
            ("backend.ws_hits", "count", "higher"),
            ("backend.ws_misses", "count", "lower"),
            ("backend.ws_hit_ratio", "fraction", "higher"),
            ("backend.ws_resident_mb", "MB", "lower"),
            ("spectral.plan_builds", "count", "lower"),
            ("spectral.plan_hits", "count", "higher")):
        reg[name] = (unit, better, _MOVES["backend"])
    reg["history.bytes_written_per_mday"] = ("B/member-day", "lower",
                                             _MOVES["history"])
    reg["history.checkpoint_bytes"] = ("B", "lower", _MOVES["history"])
    for kind in ("surface", "sst", "atm_state", "atm_phys", "forcing"):
        reg[f"parallel.wait.{kind}_s_per_day"] = ("s/day", "lower",
                                                  _MOVES["parallel"])
    for name, unit, better in (
            ("parallel.ocean_busy_s_per_day", "s/day", "lower"),
            ("parallel.overlap_s_per_day", "s/day", "higher"),
            ("parallel.hidden_fraction", "fraction", "higher"),
            ("parallel.msgs_sent", "count", "lower"),
            ("parallel.bytes_sent", "count", "lower"),
            ("parallel.rank_wall_max_s", "s", "lower")):
        reg[name] = (unit, better, _MOVES["parallel"])
    reg["trace.overhead_frac"] = ("fraction", "lower", _MOVES["trace"])
    return reg


#: name -> (unit, better, which end-to-end metric on which workload it moves)
PER_LAYER = _registry()


def span_ledger(spans: list[list], counts: Counter, n_traced: int,
                member_days: float) -> tuple[dict, list[str]]:
    """Span-derived metrics of ``n_traced`` traced repeats, and problems.

    A problem is a count that differed between repeats, or a
    ``foam.coupled_step`` whose descendants' self times do not add up to
    its inclusive time.
    """
    problems = []
    selfs = self_times(spans)
    self_sum: Counter = Counter()
    incl_sum: Counter = Counter()
    per_repeat: dict[str, Counter] = {}
    for (name, t0, t1, _, run_id), s in zip(spans, selfs):
        self_sum[name] += s
        incl_sum[name] += t1 - t0
        per_repeat.setdefault(run_id.split("/")[0], Counter())[name] += 1
    calls = list(per_repeat.values())
    if any(c != calls[0] for c in calls):
        problems.append(f"span counts differ between traced repeats: {calls}")
    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = sum(c[span] for c in calls) / n_traced
        metrics[f"{span}.self_s_per_mday"] = (self_sum[span]
                                              / (member_days * n_traced))
    step = incl_sum["foam.coupled_step"]
    for span in FOAM_PHASES:
        # The step's own share is its self time: work in no wrapped phase.
        part = (self_sum[span] if span == "foam.coupled_step"
                else incl_sum[span])
        metrics[f"{span}.share"] = part / step if step > 0 else 0.0
    metrics["barotropic.substeps"] = counts["barotropic.substeps"] / n_traced
    under, inclusive = subtree_closure(spans, selfs, "foam.coupled_step")
    if abs(under - inclusive) > 1e-9 * max(1.0, inclusive) + 1e-9 * len(spans):
        problems.append(f"self times under foam.coupled_step sum to "
                        f"{under!r} s but its inclusive time is "
                        f"{inclusive!r} s")
    return metrics, problems


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
