"""The names the benchmark in perfbench/ takes from the package.

perfbench/tracing.py wraps functions by (module, name), perfbench/child.py
reads the cache directory through wickweights.cache, and
perfbench/test_reference.py passes use_disk to gaussian_trace_moment.  A
change to the package that drops one of them would otherwise break only
the benchmark's traced runs or its reference tests.
"""

import importlib
import importlib.util
import pathlib

from wickweights import Ensemble, cache, gaussian_trace_moment

_TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, name, *_ in tracing.WRAPPED
               if not callable(getattr(importlib.import_module(f"wickweights.{module}"), name, None))]
    assert tracing.WRAPPED
    assert not missing


def test_cache_names_and_use_disk_accepted():
    assert callable(cache.cache_dir) and isinstance(cache.ENV_VAR, str)
    moment = gaussian_trace_moment(Ensemble.UNITARY, [(2,)], use_disk=False)
    assert moment is gaussian_trace_moment(Ensemble.UNITARY, [(2,)])
