"""The names the benchmark in perfbench/ takes from the package.

perfbench/tracing.py wraps functions by (module, name), perfbench/child.py
reads the cache directory through wickweights.cache, and
perfbench/test_reference.py passes use_disk to gaussian_trace_moment.
perfbench/run.py builds RatFunc(Poly(list), Poly(list)), solves with
algebra.solve_linear_system(matrix, rhs) and reads .num.coeffs and
.den.coeffs; perfbench/child.py reads GramSystem.partitions and .matrix and
WeightFunction.coefficient.  A change to the package that drops one of them
would otherwise break only the benchmark's runs or its reference tests.
"""

import importlib
import importlib.util
import pathlib

from wickweights import Ensemble, algebra, cache, gaussian_trace_moment, weights
from wickweights.algebra import Poly, RatFunc

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
    assert moment == gaussian_trace_moment(Ensemble.UNITARY, [(2,)])


def test_ratfunc_coefficients_round_trip_as_int_tuples():
    f = RatFunc(Poly([2, 0, -4]), Poly([6, 2**70]))
    assert f.num.coeffs == (1, 0, -2) and f.den.coeffs == (3, 2**69)
    assert all(type(c) is int for c in f.num.coeffs + f.den.coeffs)
    assert RatFunc(Poly(list(f.num.coeffs)), Poly(list(f.den.coeffs))) == f


def test_solve_and_gram_names_the_benchmark_reads():
    x = algebra.solve_linear_system([[RatFunc(Poly([0, 1]))]], [RatFunc(Poly([0, 0, 1]))])
    assert isinstance(x, list) and [(v.num.coeffs, v.den.coeffs) for v in x] == [((0, 1), (1,))]
    gram = weights.build_gram_system(Ensemble.ORTHOGONAL, 2)
    weight = weights.solve_weight(Ensemble.ORTHOGONAL, 2)
    solved = algebra.solve_linear_system([list(row) for row in gram.matrix], list(gram.rhs))
    assert isinstance(solved, list)
    assert [weight.coefficient(p) for p in gram.partitions] == solved
