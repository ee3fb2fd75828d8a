"""Filesystem helpers."""
from __future__ import annotations

import os
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write a file via temp-then-rename so readers never see partial content.

    The temp file has a unique name in the target's directory, so concurrent
    writers of one target never rename each other's partial file, and it is
    created with mode 0o666 so the result's mode follows the umask. A failed
    write removes it.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def undecodable(path: str | Path, data: bytes | None = None) -> str:
    """Describe a file that failed to decode as UTF-8: its path and the line
    (counted by newlines) that holds its first bad byte. ``data`` is its
    content when the caller holds it whole; otherwise the file is read again."""
    if data is None:
        data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return f"{path} line {line}: not valid UTF-8 ({exc.reason})"
    return f"{path}: not valid UTF-8"  # it changed after the failed read
