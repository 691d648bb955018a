"""Disk cache for expensive symbolic results (weight tables, Gram products).

Location: $WICKWEIGHTS_CACHE_DIR if set, else $XDG_CACHE_HOME/wickweights,
else ~/.cache/wickweights.  Writes go through a temp file and an atomic
rename so concurrent producers of the same value cannot leave a torn file.
Entries are versioned; anything with a different schema version is ignored.
A write that fails is logged as a warning and otherwise ignored: the cache
only saves recomputation.
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
    path = cache_dir() / name
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError):
        return None
    if obj.get("schema") != SCHEMA_VERSION:
        return None
    return obj.get("payload")


def store_json(name: str, payload) -> None:
    path = cache_dir() / name
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA_VERSION, "payload": payload}, fh)
        os.replace(tmp, path)
    except OSError as exc:
        import logging  # only a failed write needs it; importing costs start-up time

        logging.getLogger("wickweights.cache").warning("could not write cache file %s: %s", path, exc)
        try:
            os.unlink(tmp)
        except OSError:
            pass
