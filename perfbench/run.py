"""wickweights benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
./src and BENCHMARK.json names the metrics.  Workloads (see README.md):

    gram-cold    the 11 weight tables, solved in a fresh process per round
    verify-cli   a `python -m wickweights.cli` session, cold then warm pass
    exact-solve  algebra.solve_linear_system on loop-equation Gram systems
    mc-oracle    sampling.mc_integrate at N=8 on six closed-form monomials

A run first builds the data that only the checks use, untimed.  It then
sets up SETUP_REPEATS times (a fresh interpreter importing the package,
plus the program's own share of the workload's inputs), and repeats whole
rounds of the workload until --seconds have passed, and at least the
workload's min_rounds.  round_s adds up each operation's median over the
run's rounds.  Every round writes only to a new, empty cache directory.

The shared machine this was tuned on changes speed by a quarter or more
over minutes (see README.md).  So each operation is followed by speed
samples, for a tenth of its time: a fixed loop that uses nothing of the
program (child.speed_sample).  Where the operations run in this process,
on one thread (exact-solve, mc-oracle), the loop runs on that thread.
Where they run in child processes with the fork pool (gram-cold,
verify-cli), it runs in one process per core at once.  round_s is the
round's wall time scaled by SPEED_NOMINAL_S over the median sample: the
round time at the speed at which that loop takes SPEED_NOMINAL_S.  A
change to the program moves it as it moves the wall time; a change of
the machine's speed moves the samples too and cancels out.  setup_s is
scaled by the same factor.

With --trace 0 the result holds the end-to-end metrics; with --trace 1
every round is traced and the result holds the per-layer metrics, per
round.  Every output is checked against computations that do not go
through the program.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import child
import reference as ref
from child import speed_sample
from tracing import Tracer, cpu_seconds, layer_metrics, median_or_zero, span_cost

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
PIVOT_N = 10
#: the speed probe's time on the reference machine; see the module docstring
SPEED_NOMINAL_S = 0.1
SPEED_SHARE = 0.1


class Run:
    """State of one benchmark run: seed-derived inputs, scratch space, tallies."""

    def __init__(self, seed: int, scratch: Path, traced: bool):
        self.seed = seed
        self.traced = traced
        # evaluation points of the Fraction checks: away from every pole
        self.points = sorted(random.Random(seed).sample(range(11, 64), 3))
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.speed: list[float] = []

    def check(self, ok: bool, what: str) -> None:
        """Record a wrong output: the run is then not correct."""
        if not ok:
            self.errors.append(what)

    def sample_speed(self, after_s: float, sampler) -> None:
        """Speed samples for SPEED_SHARE of an operation of after_s seconds,
        at least one, taken while the program is idle.  Traced rounds take
        none, so that proc.wall_s is the round's alone."""
        if not self.traced:
            count = max(1, round(after_s * SPEED_SHARE / SPEED_NOMINAL_S))
            self.speed.extend(sampler(count))

    def fail(self, count: int, what: str) -> None:
        """Record operations that raised or exited non-zero, without an output."""
        self.failed += count
        print(f"operation failed: {what}", file=sys.stderr)

    def fresh_dir(self) -> Path:
        path = Path(tempfile.mkdtemp(dir=self.scratch))
        if any(path.iterdir()):
            raise RuntimeError(f"fresh directory {path} is not empty")
        return path

    def env(self, cache_dir: Path) -> dict:
        return dict(os.environ, WICKWEIGHTS_CACHE_DIR=str(cache_dir), PYTHONPATH=str(SRC))


def thread_speed_samples(count: int) -> list[float]:
    """Speed samples on this thread."""
    return [speed_sample() for _ in range(count)]


def cores_speed_samples(count: int) -> list[float]:
    """Speed samples on every core at once: as many concurrent processes as
    the fork pool has workers each take count samples, and the i-th sample
    is the mean of their i-th ones."""
    argv = [sys.executable, str(HERE / "child.py"), "speed", str(count)]
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
             for _ in range(min(os.cpu_count() or 1, 8))]
    per_process = [json.loads(p.communicate()[0]) for p in procs]
    return [statistics.mean(samples) for samples in zip(*per_process)]


def _ratio(pair):
    num, den = pair
    return [int(c) for c in num], [int(c) for c in den]


def _eval(pair, n) -> Fraction:
    return ref.ratio_eval(*_ratio(pair), n)


def check_system(run: Run, label: str, ref_system, solution) -> None:
    """Fraction checks of a solved Gram system, without the program's algebra:
    symmetry and zero residual at the run's points, positive pivots at N=10."""
    _, matrix, rhs = ref_system
    for n in run.points:
        values, b = ref.eval_system(matrix, rhs, n)
        run.check(ref.is_symmetric(values), f"{label}: Gram matrix not symmetric at N={n}")
        x = [_eval(pair, n) for pair in solution]
        run.check(ref.residual_is_zero(values, b, x), f"{label}: solution misses the system at N={n}")
    values, _ = ref.eval_system(matrix, rhs, PIVOT_N)
    run.check(ref.pivots_positive(values), f"{label}: Gram pivots not all positive at N={PIVOT_N}")


def _run_child(run: Run, argv: list[str], cache_dir: Path, extra_env=None):
    """Run a child to its end; None if it timed out.  The child gets a process
    group of its own so that a timeout also stops its fork-pool workers."""
    env = run.env(cache_dir)
    env.update(extra_env or {})
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


# -- workloads ------------------------------------------------------------------------------


class Workload:
    """One workload.  reference() builds, untimed and once a run, the data
    that only the checks use; setup() is the timed part of set-up, the
    program's own share of the inputs; after() runs once the rounds are
    done, untimed, for checks that need no repeating."""

    min_rounds = 1

    def reference(self, run: Run):
        return None

    def setup(self, run: Run, reference):
        return reference

    def after(self, run: Run, inputs) -> None:
        pass


class GramCold(Workload):
    """The 11 weight tables, cold, in one fresh process per round."""

    def reference(self, run: Run):
        moments = {e: ref.LoopMoments(e) for e in ref.ENSEMBLES}
        return {(e, k): moments[e].gram(k) for e, k in child.TABLES}

    def round(self, run: Run, inputs, traced: bool) -> dict:
        cache_dir = run.fresh_dir()
        out_path = run.scratch / "tables.json"
        argv = [sys.executable, str(HERE / "child.py"), "tables", str(out_path)]
        proc = _run_child(run, argv + (["--trace"] if traced else []), cache_dir)
        run.attempted += len(child.TABLES)
        if proc is None or proc.returncode != 0 or not out_path.exists():
            run.fail(len(child.TABLES), f"tables child: {proc and proc.stderr[-2000:]}")
            return {"ops": {}, "spans": []}
        result = json.loads(out_path.read_text())
        out_path.unlink()
        solved = [(t["ensemble"], t["kappa"]) for t in result["tables"]]
        run.check(solved == list(child.TABLES), f"tables child returned {solved}")
        for table in result["tables"]:
            label = f"{table['ensemble']} kappa={table['kappa']}"
            if "error" in table:
                run.fail(1, f"{label}: {table['error']}")
                continue
            self.check_table(run, label, inputs[table["ensemble"], table["kappa"]], table)
        ops = {f"{t['ensemble']} kappa={t['kappa']}": t["seconds"]
               for t in result["tables"] if "error" not in t}
        run.sample_speed(sum(ops.values()), cores_speed_samples)
        return {"ops": ops, "spans": [result["spans"]]}

    def check_table(self, run: Run, label: str, ref_system, table) -> None:
        parts, matrix, _ = ref_system
        run.check([tuple(p) for p in table["partitions"]] == parts, f"{label}: partition order")
        same = all(ref.same_ratio(*ref_entry, *_ratio(entry))
                   for ref_row, row in zip(matrix, table["gram"])
                   for ref_entry, entry in zip(ref_row, row))
        run.check(same, f"{label}: Gram entries differ from the loop-equation reference")
        program_gram = (parts, [[_ratio(e) for e in row] for row in table["gram"]], ref_system[2])
        check_system(run, label, program_gram, table["weight"])
        published = ref.PUBLISHED.get((table["ensemble"], table["kappa"]))
        if published is not None:
            for n in run.points:
                want = published(Fraction(n))
                got = {p: _eval(pair, n) for p, pair in zip(parts, table["weight"])}
                run.check(got == want, f"{label}: differs from the published table at N={n}")


_CONDITION = "condition k={k} for {ensemble} kappa={kappa}: ok"
_BETA_RE = re.compile(r"^error order at k=(\d+): observed beta=(-?\d+)", re.M)
_VALUE_RE = re.compile(r"^= (-?\d+(?:/\d+)?) = \S+ at N = (\d+)$", re.M)


class VerifyCli(Workload):
    """A user's CLI session, run twice in one cache directory: cold, then warm."""

    VERIFY = (("orthogonal", 3), ("unitary", 3), ("coe", 3))
    # each within its weight's exact range (degree <= 2 kappa), so the result
    # must equal the closed-form Haar/COE value; the unitary kappa=4 call
    # brings open moments of total degree 16 into the session
    INTEGRATE = (
        ("orthogonal", 3, "M[1,1] M[1,1] M[1,1] M[1,1] M[1,1] M[1,1]"),
        ("orthogonal", 3, "M[1,1] M[1,1] M[1,2] M[1,2]"),
        ("unitary", 3, "M[1,1] Mc[1,1] M[1,1] Mc[1,1] M[1,1] Mc[1,1]"),
        ("coe", 3, "M[1,1] Mc[1,1]"),
        ("coe", 3, "M[1,1] Mc[1,1] M[1,1] Mc[1,1]"),
        ("unitary", 4, "M[1,1] Mc[1,1] M[1,1] Mc[1,1] M[1,1] Mc[1,1] M[1,1] Mc[1,1]"),
    )

    def reference(self, run: Run):
        rng = random.Random(f"verify-cli/{run.seed}")
        commands = [(["verify", "--ensemble", e, "--kappa", str(k)], ("verify", e, k))
                    for e, k in self.VERIFY]
        for e, k, mono in self.INTEGRATE:
            n = rng.randrange(8, 64)
            commands.append((["integrate", "--ensemble", e, "--kappa", str(k), "--monomial", mono,
                              "--at", str(n)], ("integrate", e, mono, n)))
        return commands

    def round(self, run: Run, commands, traced: bool) -> dict:
        cache_dir = run.fresh_dir()
        spans, startups, ops = [], [], {}
        for session in ("cold", "warm"):
            for args, expect in commands:
                start = time.perf_counter()
                out = self.command(run, cache_dir, args, traced)
                run.attempted += 1
                if out is None:
                    continue
                ops[f"{session} {' '.join(args)}"] = seconds = time.perf_counter() - start
                run.sample_speed(seconds, cores_speed_samples)
                self.check_output(run, expect, out["stdout"])
                spans.append(out.get("spans", []))
                if "startup_s" in out:
                    startups.append(out["startup_s"])
        passes = {s: sum(t for op, t in ops.items() if op.startswith(s)) for s in ("cold", "warm")}
        return {"ops": ops, "spans": spans, "session.cold_s": passes["cold"],
                "session.warm_s": passes["warm"], "startups": startups}

    def command(self, run: Run, cache_dir: Path, args: list[str], traced: bool):
        if not traced:
            proc = _run_child(run, [sys.executable, "-m", "wickweights.cli"] + args, cache_dir)
            if proc is None or proc.returncode != 0:
                run.fail(1, f"{args}: {proc and (proc.returncode, proc.stderr[-2000:])}")
                return None
            return {"stdout": proc.stdout}
        out_path = run.scratch / "cli.json"
        argv = [sys.executable, str(HERE / "child.py"), "cli", str(out_path)] + args
        proc = _run_child(run, argv, cache_dir, {"PERFBENCH_LAUNCH": repr(time.time())})
        if proc is None or proc.returncode != 0:
            run.fail(1, f"{args}: {proc and (proc.returncode, proc.stderr[-2000:])}")
            return None
        result = json.loads(out_path.read_text())
        out_path.unlink()
        return {"stdout": proc.stdout, **result}

    def check_output(self, run: Run, expect, stdout: str) -> None:
        if expect[0] == "verify":
            _, ensemble, kappa = expect
            for k in range(1, kappa + 1):
                line = _CONDITION.format(k=k, ensemble=ensemble, kappa=kappa)
                run.check(line in stdout.splitlines(), f"verify {ensemble} {kappa}: no '{line}'")
            m = _BETA_RE.search(stdout)
            identically_zero = f"error order at k={kappa + 1}: difference is identically zero"
            ok = (m is not None and int(m.group(1)) == kappa + 1
                  and int(m.group(2)) >= kappa // 2 + 1) or identically_zero in stdout
            run.check(ok, f"verify {ensemble} {kappa}: error order misses the bound {kappa // 2 + 1}")
        else:
            _, ensemble, mono, n = expect
            m = _VALUE_RE.search(stdout)
            want = ref.CLOSED_FORMS[ensemble, mono](Fraction(n))
            ok = m is not None and int(m.group(2)) == n and Fraction(m.group(1)) == want
            run.check(ok, f"integrate {ensemble} {mono} at N={n}: want {want}, got {stdout!r}")


class ExactSolve(Workload):
    """The program's exact solve on Gram systems the reference builds."""

    SYSTEMS = (("orthogonal", 5), ("unitary", 5), ("coe", 5), ("unitary", 6))
    # one round takes about 12 s, longer than a run; with two rounds each
    # solve counts at the mean of two
    min_rounds = 2

    def __init__(self):
        self.checked: dict[str, list] = {}

    def reference(self, run: Run):
        return [(f"{e} kappa={k}", ref.LoopMoments(e).gram(k)) for e, k in self.SYSTEMS]

    def setup(self, run: Run, systems):
        from wickweights.algebra import Poly, RatFunc

        def ratfunc(pair):
            return RatFunc(Poly(pair[0]), Poly(pair[1]))

        return [(label, system, [[ratfunc(e) for e in row] for row in system[1]],
                 [ratfunc(b) for b in system[2]]) for label, system in systems]

    def round(self, run: Run, systems, traced: bool) -> dict:
        from wickweights import algebra

        ops = {}
        for label, ref_system, matrix, rhs in systems:
            run.attempted += 1
            start = time.perf_counter()
            try:
                x = algebra.solve_linear_system(matrix, rhs)
            except Exception as exc:  # counted as a failed operation
                run.fail(1, f"{label}: {exc!r}")
                continue
            ops[label] = seconds = time.perf_counter() - start
            run.sample_speed(seconds, thread_speed_samples)
            solution = [(list(r.num.coeffs), list(r.den.coeffs)) for r in x]
            if label not in self.checked:
                check_system(run, label, ref_system, solution)
                self.checked[label] = solution
            else:
                # the Fraction checks passed on an earlier round's solution
                run.check(solution == self.checked[label], f"{label}: solution changed between rounds")
        return {"ops": ops, "spans": []}


class McOracle(Workload):
    """Monte Carlo estimates at N=8 of the six monomials of acceptance criterion 7."""

    N = 8
    SAMPLES = 20_000
    CASES = (
        ("orthogonal", "M[1,1] M[1,1]"),
        ("orthogonal", "M[1,1] M[1,1] M[1,1] M[1,1]"),
        ("orthogonal", "M[1,1] M[1,1] M[1,2] M[1,2]"),
        ("unitary", "M[1,1] Mc[1,1]"),
        ("unitary", "M[1,1] Mc[1,1] M[1,1] Mc[1,1]"),
        ("coe", "M[1,2] Mc[1,2]"),
    )

    def __init__(self):
        self.rounds = 0

    def reference(self, run: Run):
        return [(e, text, ref.CLOSED_FORMS[e, text](Fraction(self.N))) for e, text in self.CASES]

    def setup(self, run: Run, cases):
        from wickweights.wick import Ensemble, MonomialSpec

        return [(Ensemble(e), text, MonomialSpec.parse(text), exact) for e, text, exact in cases]

    def round(self, run: Run, cases, traced: bool) -> dict:
        from wickweights import sampling

        self.rounds += 1
        ops = {}
        for i, (ensemble, text, monomial, exact) in enumerate(cases):
            seed = random.Random(f"mc-oracle/{run.seed}/{self.rounds}/{i}").getrandbits(63)
            run.attempted += 1
            start = time.perf_counter()
            try:
                est = sampling.mc_integrate(ensemble, monomial, self.N, self.SAMPLES, seed)
            except Exception as exc:  # counted as a failed operation
                run.fail(1, f"{ensemble.value} {text}: {exc!r}")
                continue
            ops[f"{ensemble.value} {text}"] = seconds = time.perf_counter() - start
            run.sample_speed(seconds, thread_speed_samples)
            self.check_mean(run, f"{ensemble.value} {text}", est, exact)
        return {"ops": ops, "spans": []}

    def after(self, run: Run, cases) -> None:
        """<M[1,1]> = 0 in orthogonal and unitary.  The six timed monomials
        have even degree in every column, so they cannot see a sampler that
        skips the QR sign or phase fix; this mean can (it reads about -0.29
        and -0.20 at N=8 without the fix).  Checked once a run, untimed."""
        from wickweights import sampling
        from wickweights.wick import Ensemble, MonomialSpec

        for name in ("orthogonal", "unitary"):
            seed = random.Random(f"mc-oracle/{run.seed}/first-moment/{name}").getrandbits(63)
            est = sampling.mc_integrate(Ensemble(name), MonomialSpec.parse("M[1,1]"),
                                        self.N, self.SAMPLES, seed)
            self.check_mean(run, f"{name} M[1,1]", est, Fraction(0))

    def check_mean(self, run: Run, label: str, est, exact: Fraction) -> None:
        ok = abs(est.mean - float(exact)) <= 5 * est.standard_error
        run.check(ok, f"{label}: mean {est.mean} is over 5 standard errors "
                      f"({est.standard_error}) from {exact}")


WORKLOADS = {"gram-cold": GramCold, "verify-cli": VerifyCli,
             "exact-solve": ExactSolve, "mc-oracle": McOracle}


# -- running one workload -------------------------------------------------------------------


def _import_program(run: Run) -> None:
    if not (SRC / "wickweights" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {SRC}/wickweights; run from a source checkout")
    os.environ["WICKWEIGHTS_CACHE_DIR"] = str(run.fresh_dir())
    sys.path.insert(0, str(SRC))
    import wickweights

    if not Path(wickweights.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported wickweights from {wickweights.__file__}, not {SRC}")


def _fresh_import(run: Run) -> None:
    proc = _run_child(run, [sys.executable, "-c", "import wickweights.cli"], run.fresh_dir())
    if proc is None or proc.returncode != 0:
        raise SystemExit(f"error: importing the program failed: {proc and proc.stderr}")


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def _metric_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _round_seconds(rounds: list[dict]) -> float:
    """A round made of each operation at its median over the run's rounds;
    with a single round, simply that round's operations."""
    times: dict[str, list[float]] = {}
    for r in rounds:
        for op, seconds in r["ops"].items():
            times.setdefault(op, []).append(seconds)
    return sum(statistics.median(t) for t in times.values())


def measure(workload: Workload, run: Run, seconds: float, traced: bool) -> dict[str, float]:
    reference = workload.reference(run)
    setups, inputs = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _fresh_import(run)
        inputs = workload.setup(run, reference)
        setups.append(time.perf_counter() - start)

    plain, traced_rounds = [], []
    start = time.perf_counter()
    while True:
        if not traced:
            plain.append(workload.round(run, inputs, traced=False))
        else:
            tracer = Tracer()
            tracer.install()
            wall0, cpu0 = time.perf_counter(), cpu_seconds()
            try:
                out = workload.round(run, inputs, traced=True)
            finally:
                tracer.uninstall()
            out["proc.wall_s"] = time.perf_counter() - wall0
            out["proc.cpu_s"] = cpu_seconds() - cpu0
            out["spans"].append(tracer.spans)
            traced_rounds.append(out)
        done = len(plain) + len(traced_rounds)
        if done >= workload.min_rounds and time.perf_counter() - start >= seconds:
            break
    workload.after(run, inputs)

    if not traced:
        # no samples only when no operation ended, and then wall is 0 anyway
        setup, wall = statistics.median(setups), _round_seconds(plain)
        probe = median_or_zero(run.speed) or SPEED_NOMINAL_S
        print(f"wall time: set-up {setup:.4f} s, round {wall:.4f} s; speed probe median "
              f"{probe:.4f} s of {len(run.speed)} samples", file=sys.stderr)
        return {"setup_s": setup * SPEED_NOMINAL_S / probe,
                "round_s": wall * SPEED_NOMINAL_S / probe,
                "peak_rss_mb": _peak_rss_mb()}
    count = len(traced_rounds)
    metrics = {name: 0.0 for name in _metric_units("per_layer")}
    for name, value in layer_metrics([s for r in traced_rounds for s in r["spans"]]).items():
        if name in metrics:
            metrics[name] = value if name.startswith("sampling.samples_per_s") else value / count
    for name in ("proc.wall_s", "proc.cpu_s", "session.cold_s", "session.warm_s"):
        metrics[name] = median_or_zero(r[name] for r in traced_rounds if name in r)
    metrics["speed.probe_s"] = statistics.median(thread_speed_samples(10))
    metrics["cli.startup_s"] = median_or_zero(s for r in traced_rounds for s in r.get("startups", []))
    spans = sum(len(s) for r in traced_rounds for s in r["spans"])
    metrics["trace.overhead_s"] = spans / count * span_cost()
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = Run(args.seed, scratch, bool(args.trace))
        _import_program(run)
        values = measure(WORKLOADS[args.workload](), run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = _metric_units("per_layer" if args.trace else "end_to_end")
    for error in run.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
