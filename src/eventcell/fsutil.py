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
