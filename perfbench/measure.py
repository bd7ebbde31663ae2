"""One fresh process per measurement: set-up probe, reference or timed run.

``run.py`` starts this script and reads the JSON object it prints last::

    python3 perfbench/measure.py setup     --workload W --seed N
    python3 perfbench/measure.py reference --workload W --seed N
    python3 perfbench/measure.py run --workload W --seed N --seconds S \
        --trace 0|1 --out DIR [--expect DIGEST]

``setup`` times plan -> ``RunHarness`` -> ``initial_state()``.
``reference`` prints the final-state digest of one run of the workload's
reference plan.  ``run`` repeats
``RunHarness.run`` from the same initial state until ``--seconds`` have
passed, checks every repeat's output, and reports walls, failures, peak
memory and the run record; with ``--trace 1`` it alternates untraced and
traced repeats and adds the per-layer ledger.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from check import digest, failed_members, self_test
from ledger import PER_LAYER, median_or_zero, span_ledger
from tracing import Tracer
from workloads import ALL_WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fewest repeats per run, whatever ``--seconds`` says.
MIN_REPEATS = 3


def pin_one_cpu() -> None:
    """Confine this process, and the ranks it forks, to one CPU.

    On a 2-vCPU virtual machine, concurrent_paper's ranks spread over both
    vCPUs hand work back and forth, leaving a vCPU to halt and wake at each
    hand-off, and the host's steal time rises with them.  Repeats
    alternating between the two settings in one process took 8.0-9.2 s
    spread over both vCPUs (steal 21-27 %) and 5.8-6.2 s pinned to one
    (steal 4-6 %).  The ranks mostly alternate anyway (about 3 % of the
    ocean's busy time is hidden), so one CPU costs the schedule little;
    the single-process workloads run as fast either way.
    """
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])


def import_repro():
    """Import the checkout's ``src/repro``, never another installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"expected it under {src}")


def set_up(workload, seed: int, out_dir: Path):
    """plan -> RunHarness -> initial_state(), timed."""
    from repro.runs import RunHarness

    t0 = time.perf_counter()
    plan = workload.plan(seed, out_dir=str(out_dir))
    harness = RunHarness(plan)
    state = harness.initial_state()
    return time.perf_counter() - t0, harness, state


def run_record(workload, seed: int, harness) -> dict:
    """What ran and where, so runs from different settings are not mixed."""
    import numpy as np

    plan, cfg = harness.plan, harness.config
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **{k: os.environ.get(k) for k in (
                     "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")}},
        "mode": plan.mode, "substrate": plan.substrate, "nens": plan.nens,
        "world_size": (plan.n_atm + 1 + plan.n_ocn
                       if plan.mode == "concurrent" else 1),
        "backend": cfg.array_backend().name, "dtype": cfg.dtype_policy.name,
        "days": plan.days, "config_hash": cfg.content_hash(),
        "run_key": plan.run_key(),
    }


def peak_rss_kb() -> dict:
    """Peak resident set (KiB) of this process and of its largest child."""
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "largest_child":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _workspace_counts(result, before: dict) -> tuple[int, int, int]:
    """(hits, misses, resident bytes) of the arenas that did the run's work.

    In-process runs report the change of this process's arenas since
    ``before``; concurrent runs sum the fresh arenas of their ranks.
    """
    from repro.backend import workspace_totals

    if result.concurrent:
        stats = [s for seg in result.concurrent for s in seg.ws_stats]
        return (sum(s["hits"] for s in stats), sum(s["misses"] for s in stats),
                sum(s["nbytes"] for s in stats))
    tot = workspace_totals()
    return (tot["hits"] - before["hits"], tot["misses"] - before["misses"],
            tot["nbytes"])


def parallel_stats(result) -> dict:
    """Waits, overlap and traffic of one concurrent run, per simulated day."""
    segs = result.concurrent
    days = result.plan.days
    waits: Counter = Counter()
    for seg in segs:
        waits.update(seg.waits)
    out = {f"parallel.wait.{k}_s_per_day": waits[k] / days
           for k in ("surface", "sst", "atm_state", "atm_phys", "forcing")}
    busy = sum(s.ocean_busy_seconds for s in segs)
    out["parallel.ocean_busy_s_per_day"] = busy / days
    out["parallel.overlap_s_per_day"] = sum(
        s.overlap_seconds for s in segs) / days
    out["parallel.hidden_fraction"] = result.hidden_fraction
    out["parallel.msgs_sent"] = sum(c.msgs_sent for s in segs
                                    for c in s.comm_stats)
    out["parallel.bytes_sent"] = sum(c.bytes_sent for s in segs
                                     for c in s.comm_stats)
    out["parallel.rank_wall_max_s"] = max(s.wall_seconds for s in segs)
    return out


class Repeats:
    """Runs the plan again and again from one initial state, checking each."""

    def __init__(self, harness, initial, out_dir: Path, expect: str | None):
        self.harness = harness
        self.initial = initial
        self.out_dir = out_dir
        self.expect = expect
        self.nens = harness.plan.nens
        self.days = harness.plan.days
        self.records: list[dict] = []
        self.problems: list[str] = []

    def once(self, tracer=None) -> dict:
        from repro.backend import workspace_totals

        state = copy.deepcopy(self.initial)
        ws_before = workspace_totals()
        rec = {"traced": tracer is not None, "failed": self.nens}
        if tracer is not None:
            tracer.run_id = f"r{len(self.records)}"
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = self.harness.run(state=state)
            rec["wall"] = time.perf_counter() - t0
        except Exception:  # noqa: BLE001 - a raising run fails its members
            traceback.print_exc(file=sys.stderr)
            self.records.append(rec)
            return rec
        finally:
            if tracer is not None:
                tracer.uninstall()
        hits, misses, resident = _workspace_counts(result, ws_before)
        rec.update(ws_hits=hits, ws_misses=misses, ws_resident=resident,
                   history_bytes=_file_bytes(result.history_files),
                   checkpoint_bytes=_file_bytes(result.checkpoints))
        if result.concurrent:
            rec["parallel"] = parallel_stats(result)
        shutil.rmtree(self.out_dir, ignore_errors=True)

        rec["digest"] = digest(result.state)
        if self.expect is None:
            self.expect = rec["digest"]
        model = self.harness.model
        rec["failed"] = failed_members(model, self.nens, self.initial,
                                       result.state, self.days,
                                       rec["digest"], self.expect)
        if not self.records:
            self.problems += self_test(model, self.nens, self.initial,
                                       result.state, self.days)
        self.records.append(rec)
        return rec


def measure(workload, seed: int, seconds: float, trace: bool, out: Path,
            expect: str | None) -> dict:
    from repro.atmosphere.spectral import legendre_plan_stats

    out_dir = out / f"scratch-{workload.name}"
    shutil.rmtree(out_dir, ignore_errors=True)
    setup_s, harness, initial = set_up(workload, seed, out_dir)
    plan_stats = legendre_plan_stats()
    record = run_record(workload, seed, harness)
    reps = Repeats(harness, initial, out_dir, expect)
    tracer = Tracer() if trace else None

    # Traced runs measure (untraced, traced) pairs of repeats.
    per_round = 2 if trace else 1
    peak = None
    t_start = time.perf_counter()
    while True:
        if not all("wall" in reps.once(tracer if i == 1 else None)
                   for i in range(per_round)):
            break              # a run raised: its members already failed
        n = len(reps.records)
        if peak is None and n >= MIN_REPEATS:
            # Peak memory over a fixed amount of work, so that a faster
            # program fitting more repeats into the window reads the same.
            peak = peak_rss_kb()
        elapsed = time.perf_counter() - t_start
        # Stop before a round that would overrun the measuring window.
        if n >= MIN_REPEATS and elapsed * (1 + per_round / n) > seconds:
            break

    recs = reps.records
    plain = [r for r in recs if not r["traced"]]
    traced = [r for r in recs if r["traced"]]
    member_days = harness.plan.nens * harness.plan.days
    result = {
        "workload": workload.name, "setup_s": setup_s,
        "member_days": member_days,
        "walls": [r["wall"] for r in plain if "wall" in r],
        "attempted": reps.nens * len(recs),
        "failed": sum(r["failed"] for r in recs),
        "problems": reps.problems,
        "peak_rss_kb": peak or peak_rss_kb(),
        "record": record,
    }
    if not trace:
        return result

    ok = [r for r in recs if "wall" in r]
    layer, problems = span_ledger(tracer.spans, tracer.counts,
                                  max(1, len(traced)), member_days)
    result["problems"] += problems
    # Steady-state workspace counts: every repeat after the first.
    steady = {(r["ws_hits"], r["ws_misses"]) for r in ok[1:]}
    if len(steady) > 1:
        result["problems"].append(
            f"workspace counts differ between repeats: {sorted(steady)}")
    last = ok[-1] if ok else {}
    hits, misses = last.get("ws_hits", 0), last.get("ws_misses", 0)
    layer.update({
        "backend.ws_hits": hits, "backend.ws_misses": misses,
        "backend.ws_hit_ratio": hits / max(1, hits + misses),
        "backend.ws_resident_mb": last.get("ws_resident", 0) / 2**20,
        "spectral.plan_builds": plan_stats["builds"],
        "spectral.plan_hits": plan_stats["hits"],
        "history.bytes_written_per_mday": (last.get("history_bytes", 0)
                                           / member_days),
        "history.checkpoint_bytes": last.get("checkpoint_bytes", 0),
    })
    par = [r["parallel"] for r in plain if "parallel" in r]
    for name in PER_LAYER:
        if name.startswith("parallel."):
            layer[name] = median_or_zero(p[name] for p in par)
    untraced_wall = median_or_zero(r["wall"] for r in plain if "wall" in r)
    traced_wall = median_or_zero(r["wall"] for r in traced if "wall" in r)
    layer["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0
                                    if untraced_wall > 0 else 0.0)
    if not par:
        # World size 1: the process is the only rank, so its wall is the
        # slowest rank's.
        layer["parallel.rank_wall_max_s"] = untraced_wall
    result["per_layer"] = layer
    spans_path = out / f"spans-{workload.name}-seed{seed}.json"
    with open(spans_path, "w") as fh:
        json.dump({"record": record,
                   "fields": ["name", "start", "end", "parent", "run_id"],
                   "spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def reference_digest(workload, seed: int, out: Path) -> dict:
    """Final-state digest of the workload's reference plan."""
    _, harness, initial = set_up(workload.reference(), seed,
                                 out / "scratch-reference")
    return {"digest": digest(harness.run(state=initial).state)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "reference", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench_out")
    ap.add_argument("--expect", default=None,
                    help="digest every repeat must reproduce")
    args = ap.parse_args(argv)

    pin_one_cpu()
    import_repro()
    workload = ALL_WORKLOADS[args.workload]
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.mode == "setup":
        setup_s, _, _ = set_up(workload, args.seed, args.out / "unused")
        out = {"setup_s": setup_s}
    elif args.mode == "reference":
        out = reference_digest(workload, args.seed, args.out)
    else:
        out = measure(workload, args.seed, args.seconds, bool(args.trace),
                      args.out, args.expect)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
