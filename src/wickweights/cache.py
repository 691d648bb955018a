"""Disk cache for solved weight tables.

Location: $WICKWEIGHTS_CACHE_DIR if set, else $XDG_CACHE_HOME/wickweights,
else ~/.cache/wickweights.  Writes go through a temp file and an atomic
rename so concurrent producers of the same value cannot leave a torn file.
Entries are versioned; anything with a different schema version is ignored.
A read or write that fails, even for want of a usable directory, is a
miss; a failed write is logged as a warning.  The cache only saves
recomputation.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

ENV_VAR = "WICKWEIGHTS_CACHE_DIR"
SCHEMA_VERSION = 1


def cache_dir() -> Path:
    root = os.environ.get(ENV_VAR)
    if root:
        path = Path(root)
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        base = Path(xdg) if xdg else Path.home() / ".cache"
        path = base / "wickweights"
    path.mkdir(parents=True, exist_ok=True)
    return path


def load_json(name: str):
    try:
        with open(cache_dir() / name, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError):
        return None
    if obj.get("schema") != SCHEMA_VERSION:
        return None
    return obj.get("payload")


def store_json(name: str, payload) -> None:
    tmp = None
    try:
        path = cache_dir() / name
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA_VERSION, "payload": payload}, fh)
        os.replace(tmp, path)
    except OSError as exc:
        import logging  # only a failed write needs it; importing costs start-up time

        logging.getLogger("wickweights.cache").warning("could not write cache file %s: %s", name, exc)
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
