"""Benchmark trajectories: headline numbers tracked across commits.

The ``BENCH_*.json`` files the benches commit used to hold only the
latest run, so a slow regression (each commit 5 % worse than the last)
never showed.  This module normalizes them into one shape::

    {
      "benchmark": "net_gateway",
      "latest": { ... full results of the newest run ... },
      "trajectory": [
        {"commit": "6a2eda7", "date": "2026-08-07",
         "headline": {"submit_p99_s": 0.18, ...}},
        ...
      ]
    }

``trajectory`` is append-only (newest last, capped) and carries only
small, comparable headline numbers; ``latest`` keeps the newest run's
full detail.  Legacy flat files are migrated on first append: the old
dict becomes ``latest`` with an unattributed trajectory entry.

Every new record is attributed: ``dirty`` says whether the checkout had
uncommitted changes outside the benches' own outputs (``BENCH_*.json``
and ``benchmarks/results/``), and ``host`` fingerprints the machine
(``nproc``, CPU model, Python version).  A commit gets at most one clean
record: ``append`` refuses a second one (:class:`DuplicateRecordError`).
Records written before these fields existed are kept as they are.

``check()`` is the CI regression gate: the newest record's headline
metric must not exceed ``factor`` times the median of the earlier clean
records (lower-is-better metrics only -- latencies, overhead ratios);
dirty records are never a baseline.  Run it as a script::

    python benchmarks/_trajectory.py check BENCH_net_gateway.json \
        submit_p99_s --factor 1.25
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: Bounded history: enough to see a trend, small enough to diff.
MAX_RECORDS = 50

#: Paths the benches themselves write; changes there do not make a
#: checkout dirty.
_BENCH_OUTPUTS = ("benchmarks/results/", "benchmarks/BENCH_")


class DuplicateRecordError(RuntimeError):
    """A clean record for this commit is already in the trajectory."""


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def _current_commit() -> str:
    out = _git("rev-parse", "--short", "HEAD")
    return (out or "").strip() or "unknown"


def _is_dirty() -> bool | None:
    """Uncommitted changes to tracked files other than bench outputs.

    None when git cannot tell (no git, not a checkout).
    """
    out = _git("status", "--porcelain", "--untracked-files=no")
    if out is None:
        return None
    # porcelain v1: "XY path" or "XY old -> new", paths from the repo root
    paths = [line[3:].split(" -> ")[-1] for line in out.splitlines() if line.strip()]
    return any(not path.startswith(_BENCH_OUTPUTS) for path in paths)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> dict:
    """The machine a record was measured on."""
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
    }


def load(path: str | Path) -> dict:
    """Read a BENCH file, migrating the legacy flat-dict layout."""
    path = Path(path)
    if not path.exists():
        return {"benchmark": path.stem.replace("BENCH_", ""),
                "latest": {}, "trajectory": []}
    data = json.loads(path.read_text())
    if "trajectory" in data:
        return data
    # legacy: the file is one run's result dict; keep it as an
    # unattributed first record so the history starts somewhere
    return {
        "benchmark": path.stem.replace("BENCH_", ""),
        "latest": data,
        "trajectory": [{"commit": "unknown", "date": "unknown",
                        "headline": _legacy_headline(data)}],
    }


def _legacy_headline(results: dict) -> dict:
    """Best-effort headline for a pre-trajectory gateway results dict."""
    headline = {}
    if "throughput_jobs_per_s" in results:
        headline["throughput_jobs_per_s"] = results["throughput_jobs_per_s"]
    latency = results.get("submit_latency_s")
    if isinstance(latency, dict):
        for key in ("p50", "p99"):
            if key in latency:
                headline[f"submit_{key}_s"] = latency[key]
    return headline


def append(path: str | Path, headline: dict, *, latest: dict | None = None) -> dict:
    """Append one run's record and rewrite the BENCH file.

    ``headline`` is the small dict of comparable numbers; ``latest``
    (default: the headline itself) is the full result detail to keep
    for the newest run only.  Raises :class:`DuplicateRecordError`, and
    leaves the file untouched, when the record would be a second clean
    one for the current commit.
    """
    path = Path(path)
    data = load(path)
    commit = _current_commit()
    dirty = _is_dirty()
    if commit != "unknown" and dirty is False:
        for record in data["trajectory"]:
            if record.get("commit") == commit and record.get("dirty") is False:
                raise DuplicateRecordError(
                    f"{path.name} already has a clean record for commit {commit} "
                    f"(dated {record.get('date')}); commit the change being "
                    "measured first, or discard the earlier record"
                )
    data["latest"] = latest if latest is not None else dict(headline)
    data["trajectory"].append({
        "commit": commit,
        "date": datetime.date.today().isoformat(),
        "dirty": dirty,
        "host": host_fingerprint(),
        "headline": dict(headline),
    })
    data["trajectory"] = data["trajectory"][-MAX_RECORDS:]
    path.write_text(json.dumps(data, indent=2) + "\n")
    return data


def check(path: str | Path, metric: str, *, factor: float = 1.25) -> tuple[bool, str]:
    """Gate the newest record against the history (lower is better).

    Passes when no earlier clean record carries ``metric`` (nothing to
    compare), or when the newest value is at most ``factor`` times the
    median of the earlier clean ones.  Records without a ``dirty`` flag
    predate it and count as clean; a ``dirty`` of None (git could not
    tell) does not.
    """
    data = load(path)
    records = [
        record for record in data["trajectory"]
        if metric in record.get("headline", {})
    ]
    baseline_values = [
        record["headline"][metric]
        for record in records[:-1]
        if record.get("dirty", False) is False
    ]
    if not baseline_values:
        return True, (
            f"{metric}: {len(records)} record(s), no clean baseline, nothing to compare"
        )
    baseline = statistics.median(baseline_values)
    newest = records[-1]["headline"][metric]
    ratio = newest / baseline if baseline > 0 else float("inf")
    message = (
        f"{metric}: latest {newest:.4g} vs baseline median {baseline:.4g} "
        f"of {len(baseline_values)} clean record(s) (x{ratio:.3f}, gate x{factor})"
    )
    return ratio <= factor, message


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    gate = sub.add_parser("check", help="fail when the newest record regressed")
    gate.add_argument("file", help="BENCH_*.json path")
    gate.add_argument("metric", help="headline key to compare (lower is better)")
    gate.add_argument("--factor", type=float, default=1.25,
                      help="allowed ratio over the baseline median (default 1.25)")
    args = parser.parse_args(argv)
    ok, message = check(args.file, args.metric, factor=args.factor)
    print(("OK " if ok else "REGRESSION ") + message)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
