"""The unified benchmark schema and the regression comparator.

Every artifact the repo's performance machinery emits — the figure
benchmarks under ``benchmarks/``, the chaos sweep, and the gate cells in
:mod:`repro.obs.bench.gate` — shares one schema-versioned JSON layout::

    {
      "schema_version": 1,
      "name": "gate_ycsb",
      "figure": "fig07",              # paper figure this tracks, or ""
      "metrics": {
        "read_p50_us": {"value": 7300, "unit": "us",
                        "kind": "stat", "tolerance": 0.3},
        "rejected":    {"value": 0,    "unit": "count", "kind": "exact"}
      },
      "slos": { ... repro.obs.slo verdict block ... },
      "raw":  { ... benchmark-specific payload ... }
    }

``kind`` picks the comparison rule: ``exact`` metrics (deterministic
counters — commit counts, rejections, injected faults) must match the
baseline byte-for-byte; ``stat`` metrics carry a relative ``tolerance``
band. The one compared part of ``raw`` is a cell's sim-time profile
(``raw.profile``, :meth:`repro.obs.perf.Profiler.to_dict`): it is
deterministic per seed, so every ledger row's key, ``calls`` and
``sim_us`` must match the baseline exactly. :func:`compare_bench` diffs
a fresh payload against a committed baseline and reports every
excursion with the metric's (or ledger row's) name and the observed
factor, which is what the CI ``perf-gate`` job fails on.

Baselines live in ``benchmarks/baselines/`` and are updated explicitly
(``python -m repro.obs.bench --update-baselines``), never implicitly.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "Regression",
    "bench_payload",
    "compare_bench",
    "compare_suites",
    "load_bench_dir",
    "metric",
    "write_payload",
]

BENCH_SCHEMA_VERSION = 1

#: default relative tolerance for ``stat`` metrics (30%: sim-time
#: latencies are deterministic per seed, but the band lets baselines
#: survive intentional perf work until they are re-recorded)
DEFAULT_TOLERANCE = 0.30


def metric(
    value,
    unit: str = "",
    kind: str = "stat",
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """One metric entry of the unified schema."""
    if kind not in ("exact", "stat"):
        raise ValueError(f"unknown metric kind {kind!r}")
    entry = {"value": value, "unit": unit, "kind": kind}
    if kind == "stat":
        entry["tolerance"] = tolerance
    return entry


def bench_payload(
    name: str,
    figure: str = "",
    metrics: Optional[dict] = None,
    slos: Optional[dict] = None,
    raw: Optional[dict] = None,
) -> dict:
    """Assemble one schema-versioned benchmark payload."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "figure": figure,
        "metrics": dict(metrics or {}),
        "slos": dict(slos or {}),
        "raw": dict(raw or {}),
    }


@dataclass(frozen=True)
class Regression:
    """One gate failure: a metric outside its band, or a failed SLO."""

    bench: str
    metric: str
    kind: str  # "exact" | "stat" | "profile" | "slo" | "schema"
    baseline: object
    value: object
    factor: float
    message: str

    def __str__(self) -> str:
        return f"[{self.bench}] {self.message}"


def _factor(value: float, baseline: float) -> float:
    """value as a multiple of baseline (denominator clamped at 1)."""
    try:
        return round(float(value) / max(abs(float(baseline)), 1.0), 3)
    except (TypeError, ValueError):
        return float("nan")


def compare_bench(fresh: dict, baseline: dict) -> list[Regression]:
    """Diff one fresh payload against its committed baseline.

    Returns every regression: schema drift, a missing metric, an
    ``exact`` mismatch, a ``stat`` excursion beyond its tolerance band,
    a profile ledger row that differs from the baseline's, or an SLO the
    fresh run fails. New metrics absent from the baseline are *not*
    failures (they become baselines on the next update).
    """
    name = fresh.get("name", "?")
    out: list[Regression] = []
    if fresh.get("schema_version") != baseline.get("schema_version"):
        out.append(
            Regression(
                bench=name,
                metric="schema_version",
                kind="schema",
                baseline=baseline.get("schema_version"),
                value=fresh.get("schema_version"),
                factor=float("nan"),
                message=(
                    f"schema_version {fresh.get('schema_version')!r} != "
                    f"baseline {baseline.get('schema_version')!r}; "
                    "re-record baselines with --update-baselines"
                ),
            )
        )
        return out
    fresh_metrics = fresh.get("metrics", {})
    for key, base_entry in sorted(baseline.get("metrics", {}).items()):
        entry = fresh_metrics.get(key)
        if entry is None:
            out.append(
                Regression(
                    bench=name,
                    metric=key,
                    kind="schema",
                    baseline=base_entry.get("value"),
                    value=None,
                    factor=float("nan"),
                    message=f"metric {key!r} vanished from the fresh run",
                )
            )
            continue
        base_value = base_entry.get("value")
        value = entry.get("value")
        if base_entry.get("kind") == "exact":
            if value != base_value:
                out.append(
                    Regression(
                        bench=name,
                        metric=key,
                        kind="exact",
                        baseline=base_value,
                        value=value,
                        factor=_factor(value, base_value or 0),
                        message=(
                            f"exact metric {key!r}: {value!r} != "
                            f"baseline {base_value!r}"
                        ),
                    )
                )
            continue
        tolerance = base_entry.get("tolerance", DEFAULT_TOLERANCE)
        try:
            deviation = abs(float(value) - float(base_value)) / max(
                abs(float(base_value)), 1.0
            )
        except (TypeError, ValueError):
            deviation = float("inf")
        if deviation > tolerance:
            factor = _factor(value, base_value or 0)
            out.append(
                Regression(
                    bench=name,
                    metric=key,
                    kind="stat",
                    baseline=base_value,
                    value=value,
                    factor=factor,
                    message=(
                        f"{key}: {value} vs baseline {base_value} "
                        f"({factor}x, tolerance ±{tolerance:.0%})"
                    ),
                )
            )
    out.extend(_compare_profiles(name, fresh, baseline))
    for slo_name, verdict in sorted(fresh.get("slos", {}).items()):
        if not verdict.get("ok", True):
            out.append(
                Regression(
                    bench=name,
                    metric=slo_name,
                    kind="slo",
                    baseline=verdict.get("target"),
                    value=verdict.get("observed"),
                    factor=_factor(
                        verdict.get("observed", 0), verdict.get("target", 1)
                    ),
                    message=(
                        f"SLO {slo_name!r} failed: observed "
                        f"{verdict.get('observed')} vs target "
                        f"{verdict.get('target')} "
                        f"(burn {verdict.get('burn_rate')})"
                    ),
                )
            )
    return out


def _ledger_rows(payload: dict) -> Optional[dict]:
    profile = payload.get("raw", {}).get("profile")
    if profile is None:
        return None
    return {
        f"{row['subsystem']}/{row['operation']}@{row['database_id']}": (
            row["calls"],
            row["sim_us"],
        )
        for row in profile.get("entries", [])
    }


def _compare_profiles(name: str, fresh: dict, baseline: dict) -> list[Regression]:
    """Every ``raw.profile`` ledger row whose (calls, sim_us) differs."""
    base_rows = _ledger_rows(baseline)
    if base_rows is None:
        return []
    rows = _ledger_rows(fresh) or {}
    return [
        Regression(
            bench=name,
            metric=f"profile:{key}",
            kind="profile",
            baseline=base_rows.get(key),
            value=rows.get(key),
            factor=_factor(
                rows.get(key, (0, 0))[1], base_rows.get(key, (0, 0))[1]
            ),
            message=(
                f"profile row {key}: (calls, sim_us) {rows.get(key)!r} != "
                f"baseline {base_rows.get(key)!r}"
            ),
        )
        for key in sorted(set(base_rows) | set(rows))
        if rows.get(key) != base_rows.get(key)
    ]


def compare_suites(
    fresh: dict[str, dict], baselines: dict[str, dict]
) -> list[Regression]:
    """Diff a whole run (name -> payload) against the baseline set.

    A benchmark with no baseline is skipped (it gains one on the next
    ``--update-baselines``); a baseline with no fresh run is a failure —
    the gate must not pass because a benchmark silently stopped running.
    """
    out: list[Regression] = []
    for name, baseline in sorted(baselines.items()):
        payload = fresh.get(name)
        if payload is None:
            out.append(
                Regression(
                    bench=name,
                    metric="-",
                    kind="schema",
                    baseline="present",
                    value="missing",
                    factor=float("nan"),
                    message=f"benchmark {name!r} has a baseline but no fresh run",
                )
            )
            continue
        out.extend(compare_bench(payload, baseline))
    return out


def write_payload(directory, payload: dict) -> pathlib.Path:
    """Write one payload as ``BENCH_<name>.json`` (sorted, newline-terminated)."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{payload['name']}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_bench_dir(directory) -> dict[str, dict]:
    """Read every ``BENCH_*.json`` under ``directory`` (name -> payload).

    Files that predate the unified schema (no ``schema_version``) are
    ignored — they cannot be compared, only regenerated.
    """
    out: dict[str, dict] = {}
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return out
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict) or "schema_version" not in payload:
            continue
        out[payload.get("name", path.stem[len("BENCH_"):])] = payload
    return out
