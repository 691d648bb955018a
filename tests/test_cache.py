import logging
import os
import tempfile

import pytest

from wickweights import Ensemble, cache
from wickweights.weights import solve_weight


def test_store_json_logs_failed_write(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with caplog.at_level(logging.WARNING, logger="wickweights.cache"):
        cache.store_json("x.json", {"a": 1})
    assert any(r.name == "wickweights.cache" and "disk full" in r.getMessage() for r in caplog.records)
    assert list(tmp_path.iterdir()) == []  # the temp file is removed too


@pytest.mark.parametrize("broken", ["mkstemp", "directory"])
def test_unwritable_cache_still_returns_weight(tmp_path, monkeypatch, caplog, broken):
    if broken == "mkstemp":
        monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))

        def refuse(*args, **kwargs):
            raise PermissionError("read-only cache directory")

        monkeypatch.setattr(tempfile, "mkstemp", refuse)
    else:
        # a cache directory that cannot even be created: its parent is a file
        (tmp_path / "file").write_text("")
        monkeypatch.setenv(cache.ENV_VAR, str(tmp_path / "file" / "cache"))
    with caplog.at_level(logging.WARNING, logger="wickweights.cache"):
        w = solve_weight(Ensemble.ORTHOGONAL, 2)
    assert w == solve_weight(Ensemble.ORTHOGONAL, 2, use_disk=False)
    assert any(r.name == "wickweights.cache" and "weight_orthogonal_k2.json" in r.getMessage()
               for r in caplog.records)
    assert [f.name for f in tmp_path.iterdir()] in ([], ["file"])
