"""Child processes of the benchmark.

    python3 perfbench/child.py tables OUT.json [--trace]
        Solve the weight tables in this fresh process, against the empty
        cache directory in WICKWEIGHTS_CACHE_DIR, then write to OUT.json
        every table with its solve time and Gram matrix and, with --trace,
        the spans of the solves.
    python3 perfbench/child.py speed COUNT
        Take COUNT speed samples (speed_sample) and print their seconds.
    python3 perfbench/child.py cli OUT.json ARGS...
        Run one `wickweights ARGS...` command under the tracer and write its
        spans and start-up time to OUT.json.  PERFBENCH_LAUNCH holds the
        time.time() at which the parent started this process.

Both expect the checkout's src/ on PYTHONPATH.  A fresh process per round is
what keeps the tables cold: the program memoizes trace moments in memory.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, write_spans

#: the weight tables of one gram-cold round, in solve order
TABLES = tuple(
    [("orthogonal", k) for k in (1, 2, 3, 4)]
    + [("unitary", k) for k in (1, 2, 3, 4)]
    + [("coe", k) for k in (1, 2, 3)]
)


#: iterations of the speed probe: about 0.1 s on the reference machine
SPEED_LOOP = 2_000_000


def speed_sample() -> float:
    """Seconds a fixed pure-Python loop takes now, using nothing of the
    program: how fast this thread runs on the shared machine at the moment."""
    start = time.perf_counter()
    total = 0
    for i in range(SPEED_LOOP):
        total += i
    return time.perf_counter() - start


def _coeffs(r) -> list[list[str]]:
    return [[str(c) for c in r.num.coeffs], [str(c) for c in r.den.coeffs]]


def tables(out_path: str, traced: bool) -> int:
    from wickweights import cache, weights
    from wickweights.wick import Ensemble

    cache_dir = cache.cache_dir()
    if cache_dir.resolve() != Path(os.environ[cache.ENV_VAR]).resolve() or any(cache_dir.iterdir()):
        raise RuntimeError(f"cache directory {cache_dir} is not the fresh one the benchmark made")
    tracer = Tracer()
    if traced:
        tracer.install()
    solved = []
    for ensemble, kappa in TABLES:
        t0 = time.perf_counter()
        try:
            weight = weights.solve_weight(Ensemble(ensemble), kappa)
        except Exception:  # reported per table, counted as a failed operation
            solved.append((ensemble, kappa, None, traceback.format_exc()))
            continue
        solved.append((ensemble, kappa, weight, time.perf_counter() - t0))
    tracer.uninstall()
    out = []
    for ensemble, kappa, weight, info in solved:
        if weight is None:
            out.append({"ensemble": ensemble, "kappa": kappa, "error": info})
            continue
        # the trace moments are memoized by now, so this re-reads the Gram
        # matrix the solve used without recomputing it
        gram = weights.build_gram_system(Ensemble(ensemble), kappa)
        out.append({
            "ensemble": ensemble, "kappa": kappa, "seconds": info,
            "partitions": [list(p) for p in gram.partitions],
            "gram": [[_coeffs(e) for e in row] for row in gram.matrix],
            "weight": [_coeffs(weight.coefficient(p)) for p in gram.partitions],
        })
    write_spans(out_path, tracer.spans, tables=out)
    return 0


def cli(out_path: str, argv: list[str]) -> int:
    launched = float(os.environ["PERFBENCH_LAUNCH"])
    tracer = Tracer()
    from wickweights import cli as wcli

    tracer.install()
    wall_offset = time.time() - time.perf_counter()
    try:
        rc = wcli.main(argv)
    finally:
        tracer.uninstall()
        first = tracer.spans[0]["start"] if tracer.spans else time.perf_counter()
        sys.stdout.flush()
        write_spans(out_path, tracer.spans, startup_s=first + wall_offset - launched)
    return rc


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "tables":
        return tables(argv[1], "--trace" in argv[2:])
    if len(argv) == 2 and argv[0] == "speed":
        print(json.dumps([speed_sample() for _ in range(int(argv[1]))]))
        return 0
    if len(argv) >= 2 and argv[0] == "cli":
        return cli(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
