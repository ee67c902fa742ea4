"""paratorus benchmark: time to a verified solution, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload circle_batch --seed 1 --seconds 55 --trace 0

Workloads (see workloads.py and BENCHMARK.json): circle_batch, torus_pair.
The inputs come from --seed alone. Set-up (import, field generation, grids,
Diophantine certification) is timed in this process and in a few fresh child
processes, and setup_s is the median. Then the workload's cases are solved and
verified in turn, round robin, each time on freshly generated inputs, while at
least half a case's time of --seconds is left, and every case at least once.
The end-to-end times are per pass over all cases: the sum over cases of the
mean time of that case over the whole run. The host's speed drifts over tens
of seconds, so a mean over the whole run is steadier than any single pass.

With --trace 1 an untimed warm-up of the first case runs first, and each case
is followed by a second, traced solve-and-verify of the same case on fresh
inputs. Its spans give the per-layer metrics (summed over cases, each the mean
over its traced runs); its solutions must be bit-identical to the untraced
ones, and trace.overhead_s is the traced minus the untraced
time_to_verified_s. Spans of the last traced run are written to --out, with
the run record, which also holds each case's layer shares of its solve time.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
where attempted/failed count solves (a failure is an exception,
non-convergence, or a certificate or oracle outside its bound). The run
record (commit, cores, versions, thread settings, seed) is printed on the
line before it.

--smoke runs every workload at tiny sizes in seconds. The exit code is 0
whenever a result is printed, and 2 when the paratorus sources are missing.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("circle_batch", "torus_pair")
# single-threaded BLAS: deterministic reductions and no spinning helper threads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = {"full": 5, "smoke": 2}
END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "time_to_verified_s": "s",
    "peak_rss_mb": "MiB",
}
SOLVES = ("circle.solve", "hamtorus.solve_torus")
# layer times whose share of each case's traced solve time goes in the run record
SPLIT = (
    "spectral.warp_s",
    "spectral.transform_s",
    "paraprod.handle_build_s",
    "paraprod.handle_apply_s",
    "paraprod.invert_apply_s",
    "hamtorus.linear_solve_s",
)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=55.0, help="measure for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes: every workload in seconds")
    p.add_argument("--out", type=Path, default=HERE / "out", help="run records and spans")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _commit():
    """HEAD of the checkout's git directory, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _setup_in_child(args) -> float:
    """setup_s of a fresh interpreter running the same set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _per_pass(runs_by_case: list, key) -> float:
    """Time of one pass over all cases: the sum over cases of each case's mean."""
    return sum(statistics.fmean(key(r) for r in runs) for runs in runs_by_case)


def _is_count(name: str, value) -> bool:
    return isinstance(value, int) or name == "paraprod.applies_per_build"


def _per_layer(rows_by_case: list) -> tuple:
    """Per-layer metrics of one pass: counts must repeat exactly per case."""
    out, repeat = {}, True
    for rows in rows_by_case:
        for name, first in rows[0].items():
            values = [r[name] for r in rows]
            if _is_count(name, first):
                repeat &= all(v == first for v in values)
                value = first
            else:
                value = statistics.fmean(values)
            out[name] = out.get(name, 0) + value
    builds = out["paraprod.handle_builds"]
    out["paraprod.applies_per_build"] = out["paraprod.handle_applies"] / builds if builds else 0.0
    return out, repeat


def _unit_of(name: str, value) -> str:
    if name == "paraprod.applies_per_build":
        return "ratio"
    return "count" if isinstance(value, int) else "s"


def _split(label: str, solve_rows: list, solve_s: float) -> dict:
    """Shares of a case's traced solve time spent in the SPLIT layer times."""
    mean = {k: statistics.fmean(r[k] for r in solve_rows) for k in SPLIT}
    return {"case": label, "solve_s": solve_s,
            **{k: mean[k] / solve_s if solve_s else 0.0 for k in SPLIT}}


def main(argv=None, started=None) -> int:
    started = time.perf_counter() if started is None else started
    args = parse_args(argv)
    if not (SRC / "paratorus" / "__init__.py").is_file():
        print(f"perfbench: no paratorus sources under {SRC}", file=sys.stderr)
        return 2
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy as np
    import paratorus
    import tracing
    import workloads

    if Path(paratorus.__file__).resolve().parent != SRC / "paratorus":
        print(f"perfbench: imported paratorus from {paratorus.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    size = "smoke" if args.smoke else "full"
    spec = workloads.SPECS[args.workload][size]
    cases = workloads.make_cases(spec, args.seed)
    setup_s = time.perf_counter() - started
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s] + [_setup_in_child(args) for _ in range(SETUP_SAMPLES[size] - 1)]

    def fresh(i):
        # fresh inputs every run: the library caches derived fields on its inputs
        return workloads.make_cases(spec, args.seed)[i]

    n = len(cases)
    runs = [[] for _ in range(n)]
    traced = [[] for _ in range(n)]
    rows = [[] for _ in range(n)]
    solve_rows = [[] for _ in range(n)]
    warm, tracer = [], None
    if args.trace:
        # a process's first solve runs slower; keep it out of the overhead comparison
        warm.append(workloads.run_case(cases[0]))
        warm[0].solutions.clear()
        cases[0] = fresh(0)
    begin, done = time.perf_counter(), 0
    while True:
        i = done % n
        runs[i].append(workloads.run_case(cases[i]))
        runs[i][-1].solutions.clear()  # peak memory must not grow with the run count
        cases[i] = fresh(i)
        gc.collect()  # so the next run's peak memory does not depend on leftover garbage
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.patched():
                run = workloads.run_case(fresh(i))
            row = tracer.metrics()
            row.update(workloads.probe_layers(run))
            row["trace.solve_s"] = run.solve_s
            row["trace.verify_s"] = run.verify_s
            run.solutions.clear()
            traced[i].append(run)
            rows[i].append(row)
            solve_rows[i].append(tracer.metrics(within=SOLVES))
        done += 1
        # another case only while at least half a case's time is left
        elapsed = time.perf_counter() - begin
        if done >= n and elapsed + 0.5 * elapsed / done > args.seconds:
            break

    identical = all(
        len({r.digest for r in runs[i] + traced[i] + (warm if i == 0 else [])}) == 1
        for i in range(n)
    )
    split = []
    if args.trace:
        metrics, repeat = _per_layer(rows)
        metrics["trace.overhead_s"] = (
            _per_pass(traced, lambda r: r.time_to_verified_s)
            - _per_pass(runs, lambda r: r.time_to_verified_s)
        )
        metrics = {k: {"value": v, "unit": _unit_of(k, v)} for k, v in sorted(metrics.items())}
        split = [
            _split(cases[i].label, solve_rows[i], statistics.fmean(r.solve_s for r in traced[i]))
            for i in range(n)
        ]
    else:
        repeat = True
        values = {
            "setup_s": statistics.median(setup_samples),
            "solve_s": _per_pass(runs, lambda r: r.solve_s),
            "verify_s": _per_pass(runs, lambda r: r.verify_s),
            "time_to_verified_s": _per_pass(runs, lambda r: r.time_to_verified_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    everything = warm + [r for rs in runs + traced for r in rs]
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    result = {
        "correct": failed == 0 and identical and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    def times(rs):
        return [{"solve_s": r.solve_s, "verify_s": r.verify_s} for r in rs]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "fft": "numpy.fft (pocketfft, one thread per call)",
        "load": "one process, one solve at a time",
        "cases": [c.label for c in cases],
        "a0_nonzero_modes": workloads.count_nonzero_modes(cases),
        "setup_samples_s": setup_samples,
        "runs": [times(rs) for rs in runs],
        "traced_runs": [times(rs) for rs in traced],
        "warm_up_runs": times(warm),
        "solve_split": split,
        "solutions_identical": identical,
        "counts_repeat": repeat,
        "digests": [rs[0].digest for rs in runs],
        "failures": sorted({f for r in everything for f in r.failures}),
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(args.out / f"{stem}.json", "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.save(args.out / f"{args.workload}-seed{args.seed}.spans.npz")
    print("run record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main(started=_STARTED))
