"""Result assembly shared by the workloads: metrics, errors, provenance."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from spans import tail

#: where a run keeps its scratch files, results and trace (gitignored)
WORK_DIRNAME = ".perfbench"


@dataclass
class Metric:
    value: float
    unit: str
    samples: int | None = None
    percentile: int | None = None  # for *_tail_ms: the percentile taken


@dataclass
class RunResult:
    """Everything one workload run reports."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    ledger: "ErrorLedger" = None
    checks: "Checks" = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ledger = self.ledger or ErrorLedger()
        self.checks = self.checks or Checks()

    def put(self, name: str, value: float, unit: str, samples: int | None = None) -> None:
        self.metrics[name] = Metric(float(value), unit, samples)

    def put_rate(self, name: str, count: float, seconds: float) -> None:
        """``name``: ``count`` per second."""
        self.put(name, count / seconds, "1/s", int(count))

    def put_timings(self, prefix: str, seconds: list[float]) -> None:
        """``<prefix>_p50_ms`` and ``<prefix>_tail_ms`` of second samples."""
        ms = [s * 1000.0 for s in seconds]
        self.metrics[f"{prefix}_p50_ms"] = Metric(statistics.median(ms), "ms", len(ms))
        value, percentile = tail(ms)
        self.metrics[f"{prefix}_tail_ms"] = Metric(value, "ms", len(ms), percentile)


class ErrorLedger:
    """``error_rate``: failed, lost or refused operations over attempted.

    A job counts once as attempted when its submit is sent.  It fails if
    the submit is refused after the client's retries, errors otherwise,
    or the job ends in a non-``done`` state; it is lost if it never
    reaches a terminal state.  Each child process and the listener
    checked at teardown count as one attempted operation, and as a
    failure when still alive.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()
        self._lock = threading.Lock()  # client threads share a ledger

    def attempt(self, n: int = 1) -> None:
        with self._lock:
            self.attempted += n

    def fail(self, kind: str) -> None:
        with self._lock:
            self.failures[kind] += 1

    def submit_error(self, exc) -> None:
        """Classify an exception raised by ``GatewayClient.submit``."""
        code = getattr(exc, "code", None)
        self.fail("refused" if code == "queue_full" else "submit_error")

    def job_outcome(self, state: str | None) -> None:
        if state is None:
            self.fail("lost")
        elif state != "done":
            self.fail(f"job_{state}")

    def teardown(self, alive: dict[str, bool]) -> None:
        """``alive`` maps each checked resource to whether it survived."""
        for name, survived in alive.items():
            self.attempt()
            if survived:
                self.fail(f"leaked:{name.split(':')[0]}")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Checks:
    """Output checks; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.passed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        elif len(self.failures) < 50:
            self.failures.append(message)
        else:
            self.failures[-1] = f"... and more; last: {message}"

    @property
    def correct(self) -> bool:
        return not self.failures


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(root: Path, seed: int, args: dict) -> dict:
    """Commit, dirty flag, source digest, host fingerprint, seed."""
    info: dict = {"seed": seed, "args": args, "commit": "unknown", "dirty": None}
    if (root / ".git").exists():
        try:
            info["commit"] = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
            status = subprocess.run(
                ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout
            info["dirty"] = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    info["source_sha256"] = digest.hexdigest()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info["host"] = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "system": platform.system(),
    }
    return info


def report(
    workload: str,
    result: RunResult,
    names: list[tuple[str, str]],
    info: dict,
    out_dir: Path,
) -> dict:
    """Print every metric by name with its unit, write the result record,
    and return the contract line's object.

    ``names`` lists (metric, unit) for the contract line; every other
    metric the run measured is printed and recorded too.
    """
    for name, metric in result.metrics.items():
        detail = []
        if metric.percentile is not None:
            detail.append(f"p{metric.percentile}")
        if metric.samples is not None:
            detail.append(f"n={metric.samples}")
        suffix = f"  ({', '.join(detail)})" if detail else ""
        print(f"{workload:14s} {name:38s} {metric.value:14.6g} {metric.unit}{suffix}")
    ledger = result.ledger
    print(
        f"{workload:14s} {'error_rate':38s} {ledger.rate:14.6g} ratio"
        f"  (failed={ledger.failed}, attempted={ledger.attempted}"
        + (f", {dict(ledger.failures)}" if ledger.failures else "")
        + ")"
    )
    print(
        f"{workload:14s} checks: {result.checks.passed} passed, "
        f"{len(result.checks.failures)} failed"
    )
    for failure in result.checks.failures:
        print(f"{workload:14s} CHECK FAILED: {failure}")
    missing = [name for name, _unit in names if name not in result.metrics]
    if missing:
        raise RuntimeError(f"{workload}: metrics not measured: {missing}")
    record = {
        "workload": workload,
        "provenance": info,
        "correct": result.checks.correct,
        "checks_passed": result.checks.passed,
        "check_failures": result.checks.failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error_rate": ledger.rate,
        "failures": dict(ledger.failures),
        "metrics": {
            name: {
                "value": m.value, "unit": m.unit, "samples": m.samples,
                "percentile": m.percentile,
            }
            for name, m in result.metrics.items()
        },
        **{k: v for k, v in result.extra.items() if k != "client_stats"},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{info['seed']}-trace{info['args']['trace']}"
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    return {
        "correct": result.checks.correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {
            name: {"value": result.metrics[name].value, "unit": unit}
            for name, unit in names
        },
    }
