"""Crash-safe file writes for cache entries and checkpoints."""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Iterable


def write_atomic(path: str | Path, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks`` to ``path`` through a sibling temp file.

    The temp file replaces ``path`` only after every chunk is written, so an
    exception or a killed process partway leaves the previous file or none,
    never a truncated one; on an exception the temp file is removed. Its name
    carries the process and thread ids, so concurrent writers never share
    one. Nothing is fsynced: this guards against a failed process, not
    against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
