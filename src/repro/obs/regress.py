"""Cross-run regression sentinel: diff fresh runs against baselines.

CI has emitted ``BENCH_*.json`` artifacts since PR 2, but nothing ever
*looked* at them — a 2x slowdown or a changed brake count would ship
silently. This module is the gate: it compares a freshly produced
benchmark report (or experiment-ledger entry) against a committed
baseline under **per-metric tolerance policies**:

* deterministic result metrics — run counts, brake events, trip
  censuses, served/dropped, energy joules — compare **exact**: the
  simulator is bit-stable, so any drift is a real behavior change;
* wall times, throughputs, and rusage compare **relative with a noise
  floor**: a measurement within ``rel_tol`` of the baseline (or within
  ``noise_floor`` absolute units) passes, anything slower/faster is
  flagged;
* machine identity (cpu counts, worker pids, platform strings) is
  **ignored**.

Policies are ``(glob-pattern, Tolerance)`` pairs matched against the
dotted path of each leaf (``serial.wall_s``, ``grid.unique_runs``), the
same addresses :func:`repro.obs.diff.diff_dicts` reports: both come
from the one walker, :func:`repro.obs.diff.walk_leaves`, which the
sentinel also uses for its first-divergent-metric headline.

Entry points:

* :func:`check_bench` — one current report vs one baseline file;
* :func:`check_bench_dir` — every ``benchmarks/baselines/*.json``
  against its freshly produced sibling (what CI runs), with
  ``update=True`` refreshing the baselines instead (the
  ``check_bench --update`` workflow for intentional changes);
* :func:`check_ledger` — latest ledger entry per (family, policy,
  seed) key vs a baseline ledger;
* ``python -m repro.obs.regress`` — the CLI over all of the above
  (exit 0 in-tolerance, 1 regressions, 2 usage/IO error).
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.diff import Divergence, diff_dicts, leaves

__all__ = [
    "DEFAULT_NOISE_FLOOR",
    "DEFAULT_POLICIES",
    "DEFAULT_REL_TOL",
    "MetricDiff",
    "RegressionReport",
    "Tolerance",
    "check_bench",
    "check_bench_dir",
    "check_ledger",
    "compare_metrics",
    "main",
]

#: Default relative tolerance for noisy (timing/memory) metrics. Kept
#: below 10% so a genuine 10% wall-time regression is always flagged.
DEFAULT_REL_TOL = 0.05

#: Absolute slack under which a noisy metric never flags (seconds for
#: wall times; the same floor is harmless for per-second rates).
DEFAULT_NOISE_FLOOR = 0.25


@dataclass(frozen=True)
class Tolerance:
    """How one metric is allowed to move between runs.

    Attributes:
        mode: ``"exact"`` (bit-equal), ``"relative"`` (within
            ``rel_tol`` of the baseline, with an absolute
            ``noise_floor`` under which nothing flags), or ``"ignore"``
            (machine identity — never compared).
        rel_tol: Allowed relative deviation for ``"relative"``.
        noise_floor: Absolute deviation that never flags.
    """

    mode: str = "exact"
    rel_tol: float = 0.0
    noise_floor: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "relative", "ignore"):
            raise ConfigurationError(
                f"unknown tolerance mode {self.mode!r}"
            )
        if self.rel_tol < 0 or self.noise_floor < 0:
            raise ConfigurationError(
                "rel_tol and noise_floor cannot be negative"
            )

    @classmethod
    def exact(cls) -> "Tolerance":
        return cls("exact")

    @classmethod
    def relative(
        cls,
        rel_tol: float = DEFAULT_REL_TOL,
        noise_floor: float = DEFAULT_NOISE_FLOOR,
    ) -> "Tolerance":
        return cls("relative", rel_tol=rel_tol, noise_floor=noise_floor)

    @classmethod
    def ignore(cls) -> "Tolerance":
        return cls("ignore")

    def within(self, baseline: Any, current: Any) -> bool:
        """Whether ``current`` is an acceptable value of ``baseline``."""
        if self.mode == "ignore":
            return True
        if self.mode == "exact" or not _both_numeric(baseline, current):
            return baseline == current
        delta = abs(float(current) - float(baseline))
        if delta <= self.noise_floor:
            return True
        scale = abs(float(baseline))
        if scale == 0.0:
            return delta == 0.0
        return delta / scale <= self.rel_tol


def _both_numeric(a: Any, b: Any) -> bool:
    return (
        isinstance(a, (int, float)) and not isinstance(a, bool)
        and isinstance(b, (int, float)) and not isinstance(b, bool)
    )


#: Pattern → tolerance, first match wins; unmatched paths compare
#: exact. Patterns are ``fnmatch`` globs over the dotted leaf path.
DEFAULT_POLICIES: Tuple[Tuple[str, Tolerance], ...] = (
    ("cpu_count", Tolerance.ignore()),
    ("*worker", Tolerance.ignore()),
    ("*env.python", Tolerance.ignore()),
    ("*env.numpy", Tolerance.ignore()),
    ("*env.platform", Tolerance.ignore()),
    ("*wall_s", Tolerance.relative()),
    ("*_per_s", Tolerance.relative()),
    ("*speedup*", Tolerance.relative()),
    ("*rusage*", Tolerance.relative()),
    ("*cpu_user_s", Tolerance.relative()),
    ("*cpu_system_s", Tolerance.relative()),
    ("*max_rss_kb", Tolerance.relative()),
)


def resolve_tolerance(
    path: str,
    policies: Sequence[Tuple[str, Tolerance]] = DEFAULT_POLICIES,
) -> Tolerance:
    """The tolerance governing one dotted metric path."""
    for pattern, tolerance in policies:
        if fnmatchcase(path, pattern):
            return tolerance
    return Tolerance.exact()


@dataclass(frozen=True)
class MetricDiff:
    """One leaf metric's verdict.

    Attributes:
        path: Dotted address into the report (``serial.wall_s``).
        baseline: Value in the committed baseline (``None`` if added).
        current: Value in the fresh report (``None`` if missing).
        status: ``"ok"``, ``"drift"`` (outside tolerance),
            ``"missing"`` (baseline metric absent from the fresh
            report), or ``"added"`` (new metric with no baseline —
            informational, not a regression).
        mode: The tolerance mode that judged it.
    """

    path: str
    baseline: Any
    current: Any
    status: str
    mode: str = "exact"

    @property
    def is_regression(self) -> bool:
        return self.status in ("drift", "missing")

    def describe(self) -> str:
        if self.status == "missing":
            return f"{self.path}: missing (baseline {self.baseline!r})"
        if self.status == "added":
            return f"{self.path}: added (current {self.current!r})"
        detail = f"baseline {self.baseline!r} -> current {self.current!r}"
        if _both_numeric(self.baseline, self.current) \
                and float(self.baseline) != 0.0:
            ratio = float(self.current) / float(self.baseline)
            detail += f" (x{ratio:.3f})"
        return f"{self.path} [{self.mode}]: {detail}"


@dataclass
class RegressionReport:
    """Outcome of one baseline comparison.

    Attributes:
        name: What was compared (usually the baseline file name).
        checked: Leaf metrics examined (ignored paths excluded).
        diffs: Every out-of-tolerance / missing / added leaf.
        baseline: The baseline structure (for first-divergence).
        current: The fresh structure.
    """

    name: str
    checked: int = 0
    diffs: List[MetricDiff] = field(default_factory=list)
    baseline: Optional[Dict[str, Any]] = None
    current: Optional[Dict[str, Any]] = None

    @property
    def regressions(self) -> List[MetricDiff]:
        return [d for d in self.diffs if d.is_regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def first_divergence(self) -> Optional[Divergence]:
        """The raw first-divergent-leaf, via :mod:`repro.obs.diff`.

        Tolerance-blind: this answers "where do the files differ at
        all", the same question the trace differ answers for event
        streams — useful when a drift verdict needs root-causing.
        """
        if self.baseline is None or self.current is None:
            return None
        return diff_dicts(self.baseline, self.current)

    def summary_lines(self) -> List[str]:
        verdict = "ok" if self.ok else (
            f"{len(self.regressions)} regression(s)"
        )
        lines = [f"{self.name}: {self.checked} metric(s) checked, "
                 f"{verdict}"]
        for diff in self.diffs:
            marker = "!" if diff.is_regression else "+"
            lines.append(f"  {marker} {diff.describe()}")
        return lines


def compare_metrics(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    policies: Sequence[Tuple[str, Tolerance]] = DEFAULT_POLICIES,
    name: str = "report",
) -> RegressionReport:
    """Judge every leaf of ``current`` against ``baseline``.

    Baseline leaves missing from ``current`` are regressions
    (``"missing"``); leaves only in ``current`` are informational
    (``"added"`` — a new metric cannot regress).
    """
    base_leaves = dict(leaves(baseline))
    cur_leaves = dict(leaves(current))
    report = RegressionReport(
        name=name, baseline=baseline, current=current,
    )
    for path in sorted(set(base_leaves) | set(cur_leaves)):
        tolerance = resolve_tolerance(path, policies)
        if tolerance.mode == "ignore":
            continue
        if path not in cur_leaves:
            report.diffs.append(MetricDiff(
                path, base_leaves[path], None, "missing", tolerance.mode,
            ))
            continue
        if path not in base_leaves:
            report.diffs.append(MetricDiff(
                path, None, cur_leaves[path], "added", tolerance.mode,
            ))
            continue
        report.checked += 1
        if not tolerance.within(base_leaves[path], cur_leaves[path]):
            report.diffs.append(MetricDiff(
                path, base_leaves[path], cur_leaves[path], "drift",
                tolerance.mode,
            ))
    return report


def _load_json(path: Path) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    return data


def check_bench(
    current_path: str,
    baseline_path: str,
    policies: Sequence[Tuple[str, Tolerance]] = DEFAULT_POLICIES,
) -> RegressionReport:
    """Compare one fresh ``BENCH_*.json`` against its baseline.

    Raises:
        ConfigurationError: If either file is unreadable or not JSON.
    """
    baseline = _load_json(Path(baseline_path))
    current = _load_json(Path(current_path))
    return compare_metrics(
        baseline, current, policies, name=Path(baseline_path).name,
    )


def check_bench_dir(
    bench_dir: str = ".",
    baselines_dir: str = "benchmarks/baselines",
    policies: Sequence[Tuple[str, Tolerance]] = DEFAULT_POLICIES,
    names: Optional[Sequence[str]] = None,
    update: bool = False,
) -> List[RegressionReport]:
    """Run the sentinel over every committed baseline.

    Each ``<baselines_dir>/*.json`` is compared against the same-named
    freshly produced report in ``bench_dir`` (the repo root, where the
    benchmarks write them). A baseline whose fresh report is absent is
    itself a regression — the benchmark stopped producing it. With
    ``update=True`` the fresh reports are copied over the baselines
    instead (the intentional-change workflow); absent fresh reports
    leave their baseline untouched.

    Raises:
        ConfigurationError: If ``baselines_dir`` is missing or matches
            nothing.
    """
    root = Path(baselines_dir)
    if not root.is_dir():
        raise ConfigurationError(f"no baselines directory {root}")
    selected = sorted(
        path for path in root.glob("*.json")
        if names is None or path.name in names
    )
    if not selected:
        raise ConfigurationError(f"no baselines matched under {root}")
    reports: List[RegressionReport] = []
    for baseline_path in selected:
        current_path = Path(bench_dir) / baseline_path.name
        if update:
            if current_path.exists():
                shutil.copyfile(current_path, baseline_path)
                reports.append(RegressionReport(
                    name=baseline_path.name, checked=0,
                ))
            continue
        if not current_path.exists():
            reports.append(RegressionReport(
                name=baseline_path.name,
                diffs=[MetricDiff(
                    "<report-file>", str(baseline_path), None, "missing",
                )],
            ))
            continue
        reports.append(check_bench(
            str(current_path), str(baseline_path), policies,
        ))
    return reports


def ledger_key(entry: Dict[str, Any]) -> Tuple[Any, ...]:
    """The identity under which ledger entries supersede each other."""
    return (
        entry.get("family"),
        entry.get("policy"),
        json.dumps(entry.get("thresholds"), sort_keys=True),
        entry.get("seed"),
        entry.get("duration_s"),
    )


def _latest_by_key(
    entries: Sequence[Dict[str, Any]],
) -> Dict[Tuple[Any, ...], Dict[str, Any]]:
    latest: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    for entry in entries:
        if entry.get("kind") == "run":
            latest[ledger_key(entry)] = entry
    return latest


def _comparable_entry(entry: Dict[str, Any]) -> Dict[str, Any]:
    """The sections of a ledger entry the sentinel judges."""
    env = entry.get("env") or {}
    return {
        "digest": entry.get("digest"),
        "metrics": entry.get("metrics"),
        "wall_s": entry.get("wall_s"),
        "rusage": entry.get("rusage"),
        "env": {
            "schema_version": env.get("schema_version"),
            "digest_version": env.get("digest_version"),
        },
    }


def check_ledger(
    current: Sequence[Dict[str, Any]],
    baseline: Sequence[Dict[str, Any]],
    policies: Sequence[Tuple[str, Tolerance]] = DEFAULT_POLICIES,
) -> RegressionReport:
    """Diff the latest run per key of two ledgers.

    Entries pair up by :func:`ledger_key` (family digest, policy,
    thresholds, seed, duration); for each key present in both, the
    *latest* entry's digest, headline metrics, wall time, rusage, and
    schema stamps are judged under the tolerance policies. Keys only in
    the baseline count as missing runs; keys only in the current ledger
    are additions.
    """
    base_latest = _latest_by_key(baseline)
    cur_latest = _latest_by_key(current)
    baseline_view = {
        "|".join(str(part) for part in key): _comparable_entry(entry)
        for key, entry in base_latest.items()
    }
    current_view = {
        "|".join(str(part) for part in key): _comparable_entry(entry)
        for key, entry in cur_latest.items()
    }
    return compare_metrics(
        baseline_view, current_view, policies, name="ledger",
    )


def _policies_for(
    rel_tol: float, noise_floor: float,
) -> Tuple[Tuple[str, Tolerance], ...]:
    return tuple(
        (pattern, Tolerance.relative(rel_tol, noise_floor)
         if tolerance.mode == "relative" else tolerance)
        for pattern, tolerance in DEFAULT_POLICIES
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.obs.regress`` — the CI entry point.

    Exit codes: 0 = every metric within tolerance (or baselines
    updated), 1 = regressions found, 2 = usage/IO error.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="Compare fresh BENCH_*.json reports (and optionally "
                    "a run ledger) against committed baselines with "
                    "per-metric tolerance policies.",
    )
    parser.add_argument(
        "names", nargs="*",
        help="baseline file names to check (default: all *.json under "
             "the baselines directory)",
    )
    parser.add_argument(
        "--baselines", default="benchmarks/baselines",
        help="committed baselines directory (default: "
             "benchmarks/baselines)",
    )
    parser.add_argument(
        "--bench-dir", default=".",
        help="where the fresh reports live (default: repo root)",
    )
    parser.add_argument(
        "--ledger", default=None,
        help="fresh ledger JSONL to check against --ledger-baseline",
    )
    parser.add_argument(
        "--ledger-baseline", default=None,
        help="committed baseline ledger JSONL",
    )
    parser.add_argument(
        "--rel-tol", type=float, default=DEFAULT_REL_TOL,
        help=f"relative tolerance for noisy metrics "
             f"(default {DEFAULT_REL_TOL})",
    )
    parser.add_argument(
        "--noise-floor", type=float, default=DEFAULT_NOISE_FLOOR,
        help=f"absolute slack that never flags "
             f"(default {DEFAULT_NOISE_FLOOR})",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="refresh the baselines from the fresh reports instead of "
             "checking (the intentional-change workflow)",
    )
    args = parser.parse_args(argv)
    policies = _policies_for(args.rel_tol, args.noise_floor)
    failed = False
    try:
        reports = check_bench_dir(
            bench_dir=args.bench_dir,
            baselines_dir=args.baselines,
            policies=policies,
            names=args.names or None,
            update=args.update,
        )
        if args.update:
            for report in reports:
                print(f"updated {report.name}")
            return 0
        for report in reports:
            for line in report.summary_lines():
                print(line)
            if not report.ok:
                failed = True
                divergence = report.first_divergence()
                if divergence is not None:
                    print(f"  first divergent leaf: {divergence.field}")
        if args.ledger is not None or args.ledger_baseline is not None:
            if args.ledger is None or args.ledger_baseline is None:
                parser.error(
                    "--ledger and --ledger-baseline go together"
                )
            from repro.obs.ledger import read_ledger

            report = check_ledger(
                read_ledger(args.ledger),
                read_ledger(args.ledger_baseline),
                policies,
            )
            for line in report.summary_lines():
                print(line)
            if not report.ok:
                failed = True
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return 2
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    import sys

    sys.exit(main())
