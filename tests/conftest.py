import os
import pathlib
import shutil
import sys
import tempfile

# Every session starts from an empty weight cache, so the suite runs the
# engine instead of reading stored answers; tests/data holds the expected
# values that cold results are compared against.
_CACHE = tempfile.mkdtemp(prefix="wickweights-tests-")
os.environ["WICKWEIGHTS_CACHE_DIR"] = _CACHE

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))


def pytest_unconfigure(config):
    shutil.rmtree(_CACHE, ignore_errors=True)
