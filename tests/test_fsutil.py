"""Atomic text writes: no leftover temp files, concurrent writers, file mode."""
import os
import sys
import threading

import pytest

from eventcell.fsutil import atomic_write_text


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "lone surrogate \ud800")
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert target.read_text(encoding="utf-8") == "old"


def test_concurrent_writers_of_one_target(tmp_path):
    target = tmp_path / "kpis.csv"
    payloads = [letter * 1_000_000 for letter in "abcd"]
    errors = []

    def write(text):
        try:
            for _ in range(20):
                atomic_write_text(target, text)
        except Exception as exc:  # report any failure to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert target.read_text(encoding="utf-8") in payloads
    assert [p.name for p in tmp_path.iterdir()] == ["kpis.csv"]


def test_mode_follows_umask(tmp_path):
    previous = os.umask(0o027)
    try:
        atomic_write_text(tmp_path / "out.txt", "x")
    finally:
        os.umask(previous)
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == 0o640
