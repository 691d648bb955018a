import pathlib
import sys

import pytest

# Every test, and every module-scoped fixture, starts from an empty weight
# cache, so the suite runs the engine instead of reading stored answers;
# tests/data holds the expected values that cold results are compared
# against.
_CACHE_VAR = "WICKWEIGHTS_CACHE_DIR"

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))


@pytest.fixture(autouse=True, scope="module")
def _module_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(_CACHE_VAR, str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(_CACHE_VAR, str(tmp_path))
