"""The repository benchmark: coupled "x real time" and a per-layer ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload concurrent_paper --seed 1 \
        --seconds 55 --trace 0

``--workload`` is ``ensemble16_test`` or ``concurrent_paper`` (the two
BENCHMARK.json lists), ``serial_paper`` (the single-process baseline; see
``workloads.py``) or ``all`` of them.  Every measurement runs in a fresh
process (``measure.py``), confined with the ranks it forks to one CPU
(``measure.pin_one_cpu``):

* ``--trace 0`` times ``RunHarness.run`` untraced and reports the
  end-to-end metrics: ``realtime_x`` (members x simulated seconds / wall
  seconds, median over repeats), ``setup_s`` (plan -> harness ->
  ``initial_state()``, median of :data:`SETUP_PROBES` fresh processes) and
  ``peak_rss_mb`` (the measuring process or its largest rank, over set-up
  and the first three repeats);
* ``--trace 1`` alternates untraced and traced repeats and reports the
  per-layer metrics of ``ledger.PER_LAYER``; spans go to
  ``.perfbench_out/spans-<workload>-seed<n>.json``.

Every repeat's final state is checked (``check.py``); ``failed`` counts
members that fail it and ``failed_member_frac`` is ``failed / attempted``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from ledger import PER_LAYER
from workloads import ALL_WORKLOADS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Fresh processes that each time one set-up; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Longest a single measurement process may take.
CHILD_TIMEOUT_S = 150
#: One BLAS/OpenMP thread per process, as for one MPI rank per core: on a
#: shared 2-core host, threaded BLAS makes the day wall swing by +-10 %.
#: An exported value wins; the run record shows what was used.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"realtime_x": "x", "setup_s": "s", "peak_rss_mb": "MB"}


def check_manifest() -> None:
    """Refuse to run when BENCHMARK.json and this directory disagree."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    workloads = [(w["name"], w["why"]) for w in manifest["workloads"]]
    if workloads != [(w.name, w.why) for w in WORKLOADS.values()]:
        problems.append("workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in manifest["end_to_end"]} != END_TO_END:
        problems.append("end_to_end differs from run.END_TO_END")
    listed = {m["name"]: (m["unit"], m["better"])
              for m in manifest["per_layer"]}
    if listed != {k: v[:2] for k, v in PER_LAYER.items()}:
        problems.append("per_layer differs from ledger.PER_LAYER")
    if problems:
        raise SystemExit("BENCHMARK.json is stale: " + "; ".join(problems))


def child(*args: str) -> dict:
    """Run ``measure.py`` in a fresh process; return its last JSON line."""
    env = {**{k: "1" for k in THREAD_VARS}, **os.environ}
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), *args, "--out", str(OUT)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"measure.py {' '.join(args)} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = ALL_WORKLOADS[name]
    common = ("--workload", name, "--seed", str(seed))
    setups = ([] if trace else
              [child("setup", *common)["setup_s"]
               for _ in range(SETUP_PROBES)])
    expect = ()
    if workload.reference() is not None:
        expect = ("--expect", child("reference", *common)["digest"])
    m = child("run", *common, "--seconds", str(seconds),
              "--trace", str(int(trace)), *expect)

    print(f"run record: {json.dumps(m['record'], sort_keys=True)}")
    for problem in m["problems"]:
        print(f"{name}: CHECK FAILED: {problem}")
    correct = m["failed"] == 0 and not m["problems"]
    frac = m["failed"] / m["attempted"]
    if trace:
        metrics = {}
        for k, (unit, _, moves) in PER_LAYER.items():
            value = m["per_layer"][k]
            metrics[k] = {"value": value, "unit": unit}
            exact = " (exact count)" if unit == "count" else ""
            print(f"{name}: {k} = {value:.6g} {unit}{exact}; moves {moves}")
        print(f"{name}: spans written to {m['spans_file']}")
    else:
        rates = [m["member_days"] * 86400.0 / w for w in m["walls"]]
        rss = max(m["peak_rss_kb"].values()) / 1024.0
        metrics = {
            "realtime_x": {"value": statistics.median(rates) if rates
                           else 0.0, "unit": "x"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        print(f"{name} seed={seed}: "
              f"realtime_x = {metrics['realtime_x']['value']:.2f} x "
              f"({_spread(rates)}); "
              f"setup_s = {metrics['setup_s']['value']:.4f} s "
              f"({_spread(setups)}); "
              f"peak_rss_mb = {rss:.1f} MB; "
              f"failed_member_frac = {frac:g} "
              f"({m['failed']}/{m['attempted']} members)")
    return {"correct": correct, "attempted": m["attempted"],
            "failed": m["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*ALL_WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    check_manifest()

    names = (list(ALL_WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
