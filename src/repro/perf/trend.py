"""Benchmark trend gate: diff fresh BENCH_*.json against committed baselines.

The bench-smoke CI job produces machine-readable benchmark reports
(``BENCH_profile.json``, ``BENCH_backend.json``, ...).  This module compares
a small set of *headline* numbers from each report against the baselines
committed under ``benchmarks/baselines/`` and fails on a >30% regression —
the perf equivalent of the golden-climatology gate.

Raw wall-clock headlines are machine-dependent; the dimensionless ones
(speedups, hit rates, hidden fractions) travel between machines.  Under
``FOAM_BENCH_FAST=1`` (CI's abbreviated bench runs) or when a baseline file
is missing, violations downgrade to warnings so a noisy shared runner can
never block a merge — the full-fidelity local run is the enforcing one.

Usage::

    python -m repro.perf.trend --baseline-dir benchmarks/baselines \
        BENCH_profile.json BENCH_backend.json ...
    python -m repro.perf.trend --update ...   # rewrite the baselines
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

#: Headline metrics per report: dotted JSON path -> direction
#: ("lower" = lower is better, "higher" = higher is better).
HEADLINES: dict[str, dict[str, str]] = {
    "BENCH_profile": {
        "calibration.step_seconds": "lower",
        "calibration.ocean_call_seconds": "lower",
    },
    "BENCH_backend": {
        "runs.float64.step_seconds": "lower",
        "runs.float64.hit_rate": "higher",
        "legendre.speedup": "higher",
    },
    "BENCH_coupled": {
        "hidden_fraction": "higher",
        "concurrent_wall_seconds": "lower",
    },
    "BENCH_ensemble": {
        "gate.speedup": "higher",
    },
    # The batched-vs-reference spectral section speedup is dimensionless
    # and travels between machines; BENCH_profile tracks the day walls.
    "BENCH_kernels": {
        "gate.speedup": "higher",
    },
    # overhead_fraction itself is a ratio of two near-equal walls — far too
    # high-variance for a relative trend gate; the <10% ceiling is enforced
    # inside the bench, and the trend tracks the instrumented day wall.
    "BENCH_history": {
        "run.instrumented_wall_seconds": "lower",
    },
}

#: Default allowed fractional regression before the gate trips.
DEFAULT_THRESHOLD = 0.30


@dataclass(frozen=True)
class Comparison:
    """One headline metric diffed against its baseline."""

    report: str
    metric: str
    direction: str
    current: float
    baseline: float
    threshold: float

    @property
    def change(self) -> float:
        """Signed fractional change, positive = regression."""
        if self.baseline == 0.0:
            return 0.0
        delta = (self.current - self.baseline) / abs(self.baseline)
        return delta if self.direction == "lower" else -delta

    @property
    def regressed(self) -> bool:
        return self.change > self.threshold

    def describe(self) -> str:
        arrow = "worse" if self.change > 0 else "better"
        return (f"{self.report}:{self.metric} ({self.direction} is better): "
                f"{self.baseline:.6g} -> {self.current:.6g} "
                f"({abs(self.change) * 100.0:.1f}% {arrow})")


def extract(data: dict, dotted: str) -> float:
    """Pull a scalar out of a nested dict by dotted path."""
    node = data
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(f"no {dotted!r} in report (missing {part!r})")
        node = node[part]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise TypeError(f"{dotted!r} is {type(node).__name__}, not a number")
    return float(node)


def compare_report(report_path: Path, baseline_path: Path,
                   threshold: float = DEFAULT_THRESHOLD
                   ) -> list[Comparison]:
    """Diff one fresh report against its committed baseline."""
    stem = report_path.stem
    headlines = HEADLINES.get(stem)
    if headlines is None:
        raise ValueError(f"no headline metrics registered for {stem!r}; "
                         f"known: {sorted(HEADLINES)}")
    with open(report_path) as fh:
        current = json.load(fh)
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    out = []
    for metric, direction in headlines.items():
        out.append(Comparison(
            report=stem, metric=metric, direction=direction,
            current=extract(current, metric),
            baseline=extract(baseline, metric),
            threshold=threshold))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.trend",
        description="Gate benchmark headline numbers against baselines.")
    parser.add_argument("reports", nargs="+", metavar="BENCH_*.json")
    parser.add_argument("--baseline-dir", default="benchmarks/baselines",
                        type=Path)
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed fractional regression (default 0.30)")
    parser.add_argument("--update", action="store_true",
                        help="copy the fresh reports over the baselines "
                             "instead of gating")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but always exit 0 "
                             "(implied by FOAM_BENCH_FAST=1)")
    args = parser.parse_args(argv)

    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for report in args.reports:
            dest = args.baseline_dir / Path(report).name
            shutil.copyfile(report, dest)
            print(f"baseline updated: {dest}")
        return 0

    warn_only = args.warn_only or bool(os.environ.get("FOAM_BENCH_FAST"))
    regressions = 0
    for report in map(Path, args.reports):
        baseline = args.baseline_dir / report.name
        if not baseline.exists():
            print(f"WARNING: no baseline for {report.name} "
                  f"(expected {baseline}); skipping — commit one with "
                  f"--update", file=sys.stderr)
            continue
        for cmp in compare_report(report, baseline, args.threshold):
            line = cmp.describe()
            if cmp.regressed:
                regressions += 1
                print(f"REGRESSION: {line}", file=sys.stderr)
            else:
                print(f"ok: {line}")

    if regressions and warn_only:
        print(f"WARNING: {regressions} headline regression(s) ignored "
              f"(fast/noisy bench mode)", file=sys.stderr)
        return 0
    if regressions:
        print(f"{regressions} headline regression(s) beyond "
              f"{args.threshold * 100.0:.0f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
