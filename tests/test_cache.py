import logging
import os

from wickweights import cache


def test_store_json_logs_failed_write(tmp_path, monkeypatch, caplog):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    monkeypatch.setattr(os, "replace", fail)
    with caplog.at_level(logging.WARNING, logger="wickweights.cache"):
        cache.store_json("x.json", {"a": 1})
    assert any(r.name == "wickweights.cache" and "disk full" in r.getMessage() for r in caplog.records)
    assert list(tmp_path.iterdir()) == []  # the temp file is removed too
