"""Benchmark trajectories: attributed records, one clean record per commit.

``benchmarks/_trajectory.py`` is the append-only history behind the
``BENCH_*.json`` files and the CI regression gates.  git is stubbed
through the module's one seam (``_git``) and every file lives in tmp.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import _trajectory  # noqa: E402


def _stub_git(monkeypatch, *, commit: str | None = "abc1234", status: str | None = ""):
    """git answers ``commit`` to rev-parse and ``status`` to status."""

    def fake_git(*args: str) -> str | None:
        if args[0] == "rev-parse":
            return None if commit is None else commit + "\n"
        if args[0] == "status":
            return status
        raise AssertionError(f"unexpected git call {args}")

    monkeypatch.setattr(_trajectory, "_git", fake_git)


def _records(path: Path) -> list[dict]:
    return json.loads(path.read_text())["trajectory"]


def test_new_record_carries_dirty_flag_and_host(tmp_path, monkeypatch):
    _stub_git(monkeypatch)
    path = tmp_path / "BENCH_x.json"
    _trajectory.append(path, {"latency_s": 1.0})
    (record,) = _records(path)
    assert record["commit"] == "abc1234"
    assert record["dirty"] is False
    assert set(record["host"]) == {"nproc", "cpu", "python"}
    assert record["host"]["python"] == ".".join(map(str, sys.version_info[:3]))
    assert record["headline"] == {"latency_s": 1.0}


def test_second_clean_record_for_a_commit_is_refused(tmp_path, monkeypatch):
    _stub_git(monkeypatch)
    path = tmp_path / "BENCH_x.json"
    _trajectory.append(path, {"latency_s": 1.0})
    before = path.read_text()
    with pytest.raises(_trajectory.DuplicateRecordError, match="abc1234"):
        _trajectory.append(path, {"latency_s": 2.0})
    assert path.read_text() == before


def test_dirty_records_do_not_block_and_are_not_blocked(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_x.json"
    _stub_git(monkeypatch, status=" M src/repro/dispatch/core.py\n")
    _trajectory.append(path, {"latency_s": 1.0})
    _trajectory.append(path, {"latency_s": 1.1})
    _stub_git(monkeypatch)
    _trajectory.append(path, {"latency_s": 1.2})
    assert [r["dirty"] for r in _records(path)] == [True, True, False]


def test_bench_outputs_do_not_make_the_checkout_dirty(tmp_path, monkeypatch):
    status = (
        " M benchmarks/BENCH_store.json\n"
        " M benchmarks/results/obs_overhead.txt\n"
    )
    _stub_git(monkeypatch, status=status)
    assert _trajectory._is_dirty() is False
    _stub_git(monkeypatch, status=status + "R  src/a.py -> src/b.py\n")
    assert _trajectory._is_dirty() is True


def test_without_git_records_are_unattributed_and_never_refused(tmp_path, monkeypatch):
    _stub_git(monkeypatch, commit=None, status=None)
    path = tmp_path / "BENCH_x.json"
    _trajectory.append(path, {"latency_s": 1.0})
    _trajectory.append(path, {"latency_s": 1.0})
    assert [(r["commit"], r["dirty"]) for r in _records(path)] == [
        ("unknown", None), ("unknown", None),
    ]


def _write(path: Path, records: list[dict]) -> None:
    path.write_text(json.dumps({"benchmark": "x", "latest": {}, "trajectory": records}))


def test_check_never_uses_dirty_records_as_baseline(tmp_path):
    path = tmp_path / "BENCH_x.json"
    _write(path, [
        {"commit": "a", "dirty": False, "headline": {"m": 1.0}},
        {"commit": "b", "dirty": True, "headline": {"m": 0.1}},
        {"commit": "c", "dirty": True, "headline": {"m": 1.1}},
    ])
    ok, message = _trajectory.check(path, "m", factor=1.25)
    assert ok, message
    assert "1 clean record" in message


def test_check_with_only_dirty_history_has_nothing_to_compare(tmp_path):
    path = tmp_path / "BENCH_x.json"
    _write(path, [
        {"commit": "a", "dirty": True, "headline": {"m": 0.1}},
        {"commit": "b", "dirty": False, "headline": {"m": 9.0}},
    ])
    ok, message = _trajectory.check(path, "m", factor=1.25)
    assert ok and "nothing to compare" in message


def test_check_never_uses_unattributed_records_as_baseline(tmp_path):
    """A ``dirty`` of None (git could not tell) is not a clean record."""
    path = tmp_path / "BENCH_x.json"
    _write(path, [
        {"commit": "unknown", "dirty": None, "headline": {"m": 0.1}},
        {"commit": "a", "dirty": False, "headline": {"m": 1.0}},
        {"commit": "b", "dirty": False, "headline": {"m": 1.1}},
    ])
    ok, message = _trajectory.check(path, "m", factor=1.25)
    assert ok, message
    assert "1 clean record" in message


def test_check_counts_records_without_a_flag_as_clean(tmp_path):
    path = tmp_path / "BENCH_x.json"
    _write(path, [
        {"commit": "a", "headline": {"m": 1.0}},
        {"commit": "b", "headline": {"m": 2.0}},
    ])
    ok, message = _trajectory.check(path, "m", factor=1.25)
    assert not ok, message


def test_existing_records_stay_untouched(tmp_path, monkeypatch):
    """Appending keeps earlier records verbatim, the duplicate pair too."""
    path = tmp_path / "BENCH_obs_overhead.json"
    shutil.copy(BENCHMARKS / "BENCH_obs_overhead.json", path)
    before = _records(path)
    assert [r["commit"] for r in before] == ["6a2eda7", "6a2eda7"]
    _stub_git(monkeypatch, commit="6a2eda7")
    _trajectory.append(path, {"engine_ratio": 1.0})
    after = _records(path)
    assert after[:-1] == before
    assert after[-1]["commit"] == "6a2eda7" and after[-1]["dirty"] is False
