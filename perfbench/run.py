"""assqd benchmark: one workload per invocation, metrics as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload expand-default --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory; the run
stops with a nonzero exit code, printing no result, when it is missing.
``--seed`` derives the run's disorder seed.  ``--seconds`` sets how long
the timed phase lasts: passes over the workload's units repeat until that
many seconds have gone by, and at least MIN_PASSES run, so every cell has
a repeat.  BLAS runs on one thread, so the process is single-threaded and
its CPU time is the program's own time.  A fixed reference kernel runs
between the units, and the gated pass cost counts each unit's CPU time in
runs of that kernel, which takes out the host's changes of speed.  Each
workload names its kernel (``reference`` in workloads.py).  With
``--trace 1`` one more pass runs traced and the run
reports the per-layer metrics.  A report goes to stdout, the last stdout
line is the JSON result, and the full record (environment, rows, spans)
is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep-cold", "expand-default", "expand-wide")
# At least two passes, so every cell has a repeat to compare against.
MIN_PASSES = 2
# Fresh interpreters that time the package import, besides this one.
IMPORT_REPEATS = 4
# Workload set-ups per run; setup_s takes their median.
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FLOOR_ATOL = 1e-9
TAIL_BEYOND = 10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed; derives the run's disorder seed")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


IMPORT_CODE = """
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import assqd.bench, assqd.driver, assqd.models
print(time.perf_counter() - start)
"""


def import_assqd():
    """Import the package from this checkout's src/; None if absent."""
    if not (SRC / "assqd" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import assqd.bench
    import assqd.driver
    import assqd.models
    if Path(assqd.__file__).resolve().parent != SRC / "assqd":
        return None
    return assqd


def import_seconds() -> float:
    """Time the package import in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE.format(src=str(SRC))],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def disorder_seeds(seed: int) -> tuple[int, ...]:
    """The run's disorder seed, derived from the workload seed.

    One instance set per run keeps the set-up short, so a run has time for
    enough passes that each unit's median rides out the machine's drift.
    """
    import numpy as np

    return (int(np.random.SeedSequence(seed).generate_state(1)[0]),)


class ReferenceKernel:
    """A fixed piece of work whose CPU time tracks the machine's speed.

    The host's cores are shared with other guests, and the speed they give
    this process changes by up to half within seconds, CPU time included.
    The kernel runs ``loop`` iterations of interpreted Python (integer bit
    operations and dict updates, as in the package's Pauli code), then
    ``eigh_calls`` LAPACK ``eigh`` calls on a fixed symmetric matrix of
    order ``order``.  A workload picks the mix its own time is spent in,
    so a slow spell slows the kernel and the workload alike.
    """

    def __init__(self, loop: int, eigh_calls: int, order: int):
        import numpy as np

        a = np.random.default_rng(0).standard_normal((order, order))
        self.matrix = a + a.T
        self.eigh = np.linalg.eigh
        self.loop = loop
        self.eigh_calls = eigh_calls

    def __call__(self) -> float:
        """CPU seconds of one run of the kernel."""
        start = time.process_time()
        table: dict[int, int] = {}
        x = 0
        for i in range(self.loop):
            y = (i * 2654435761) & 0xFFFF
            x ^= y
            table[y & 1023] = table.get(y & 1023, 0) + (x.bit_count() & 3)
        for _ in range(self.eigh_calls):
            self.eigh(self.matrix)
        return time.process_time() - start


def timed_phase(workload, reference: ReferenceKernel, min_passes: int,
                seconds: float) -> tuple[dict[str, float], list[list]]:
    """Run passes for ``seconds`` (at least ``min_passes``).

    Returns the times of one pass and the cells of every pass.  A pass time
    sums, over the workload's units, each unit's median time over the
    passes, so a burst of load during one pass moves it little.  The
    reference kernel runs before the first unit and after every unit;
    ``cost_ref`` divides each unit's CPU time by the mean of the kernel
    runs on either side of it.  ``ref_ms`` is the kernel's median time.
    """
    units = workload.units()
    cost: list[list[float]] = [[] for _ in units]
    cpu: list[list[float]] = [[] for _ in units]
    wall: list[list[float]] = [[] for _ in units]
    refs: list[float] = []
    results = []
    phase_start = time.perf_counter()
    while len(results) < min_passes or time.perf_counter() - phase_start < seconds:
        cells = []
        refs.append(reference())
        for unit, unit_cost, unit_cpu, unit_wall in zip(units, cost, cpu, wall):
            start, start_cpu = time.perf_counter(), time.process_time()
            cells += unit()
            unit_cpu.append(time.process_time() - start_cpu)
            unit_wall.append(time.perf_counter() - start)
            refs.append(reference())
            unit_cost.append(unit_cpu[-1] / ((refs[-2] + refs[-1]) / 2))
        results.append(cells)

    def pass_time(spent):
        return sum(statistics.median(s) for s in spent)

    times = {"cost_ref": pass_time(cost), "cpu_s": pass_time(cpu),
             "wall_s": pass_time(wall), "ref_ms": statistics.median(refs) * 1e3}
    return times, results


def energy_map(cells) -> dict[tuple, str | None]:
    """Key -> exact E_est (float.hex), None for a call that raised."""
    return {c.key: None if c.row is None else float(c.row.E_est).hex() for c in cells}


def check_outputs(passes: list[list], traced: list[list]) -> list[str]:
    """Raise, floor, repeat and trace-identity checks; returns failure messages.

    A call that raised fails the run (the package raises on a variational
    floor violation itself); a row with terminated = "error: ..." only
    counts as failed.
    """
    problems = []
    first = passes[0]
    if len({c.key for c in first}) != len(first):
        problems.append("duplicate cell keys in one pass")
    for label, runs in (("untraced", passes), ("traced", traced)):
        raised = [c for cells in runs for c in cells if c.row is None]
        if raised:
            problems.append(f"{len(raised)} {label} call(s) raised, first at "
                            f"{raised[0].key}: {raised[0].error}")
    for cell in first:
        row = cell.row
        if not cell.failed and not row.E_est >= row.E0 - FLOOR_ATOL:
            problems.append(f"variational floor violated at {cell.key}: "
                            f"E_est={row.E_est!r} < E0={row.E0!r}")
    reference = energy_map(first)
    for label, others in (("repeat", passes[1:]), ("trace", traced)):
        for other in others:
            got = energy_map(other)
            if got.keys() != reference.keys():
                problems.append(f"{label} run did not make the same calls")
            diff = sorted(k for k in got if got[k] != reference.get(k))
            if diff:
                problems.append(f"E_est differs between {label} runs at {diff[:3]}")
    return problems


def latency_stats(cells) -> dict[str, float]:
    lat = sorted(c.latency_ms for c in cells if not c.failed)
    count = len(lat)
    if not lat:
        return {"count": 0, "p50": float("nan"), "tail": float("nan"),
                "tail_pct": float("nan"), "beyond": 0}
    # The highest percentile with at least TAIL_BEYOND samples above it;
    # when that would fall below the median, the maximum.
    beyond = TAIL_BEYOND if count > 2 * TAIL_BEYOND else 0
    return {"count": count, "p50": statistics.median(lat),
            "tail": lat[count - beyond - 1],
            "tail_pct": 100.0 * (count - beyond) / count, "beyond": beyond}


def median_error(cells) -> float:
    errs = [c.row.err for c in cells
            if not c.failed and c.key[3] == "as-en" and c.key[4] == 1]
    return statistics.median(errs) if errs else float("nan")


def layer_metrics(tracer, traced_cost: float, untraced_cost: float) -> dict:
    """Per-layer metrics (units from BENCHMARK.json) from a traced phase."""
    times = tracer.self_times()
    counts = tracer.counts

    def self_ms(name):
        return times.get(name, {}).get("self_ms", 0.0)

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    def mean(total, n):
        return total / n if n else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in ("oracle.exact_lowest", "oracle.exact_lowest.n10",
                 "oracle.exact_lowest.n12", "oracle.exact_lowest.n14",
                 "oracle.exact_lowest.n16", "bench.experiment_scaling",
                 "bench.prepare_instance", "bench.make_row", "models.build_model",
                 "sampling.contaminated_distribution", "sampling.sample_counts",
                 "sampling.top_k", "acquisition.generate_candidates",
                 "acquisition.score_candidates", "acquisition.score_two_hop",
                 "acquisition.select_top_b", "subspace.build_restricted",
                 "subspace.extend_restricted", "subspace.lowest_eigenpair",
                 "subspace.dominant_support"):
        m[f"{name}.ms"] = (self_ms(name), "ms")
    m["driver.run.ms"] = (times.get("driver.run", {}).get("ms", 0.0), "ms")
    m["driver.self.ms"] = (self_ms("driver.run"), "ms")
    m["driver.run.calls"] = (calls("driver.run"), "count")
    m["oracle.exact_lowest.calls"] = (calls("oracle.exact_lowest"), "count")
    m["subspace.lowest_eigenpair.calls"] = (calls("subspace.lowest_eigenpair"), "count")
    for name in ("oracle.apply_hamiltonian", "pauli.diagonal", "pauli.matrix_element",
                 "pauli.neighbors", "pauli._group_amplitude"):
        m[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
    pool = counts["acquisition.pool_size"]
    m["acquisition.pool_size"] = (pool, "count")
    m["acquisition.selected_frac"] = (mean(counts["acquisition.selected"], pool), "ratio")
    m["subspace.final_m"] = (mean(counts["subspace.final_states"],
                                  calls("driver.run")), "states")
    m["subspace.dominant_size"] = (mean(counts["subspace.dominant_states"],
                                        calls("subspace.dominant_support")), "states")
    m["trace.overhead_frac"] = (traced_cost / untraced_cost - 1.0, "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def environment(assqd) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(numpy),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "git_sha": _git_sha(),
        "assqd": getattr(assqd, "__version__", None),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_build(numpy) -> dict:
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except (TypeError, AttributeError):  # numpy < 1.26 prints only
        return {}
    return {
        part: {k: deps.get(part, {}).get(k) for k in
               ("name", "version", "openblas configuration")}
        for part in ("blas", "lapack")
    }


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS the process has loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    except OSError:
        return {}
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def _git_sha() -> str | None:
    """HEAD of the checkout's git repository, if it is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy loads; import_seconds inherits it
        os.environ[var] = "1"
    start = time.perf_counter()
    assqd = import_assqd()
    if assqd is None:
        print(f"error: no assqd package under {SRC}", file=sys.stderr)
        return 2
    imports = [time.perf_counter() - start]
    imports += [import_seconds() for _ in range(IMPORT_REPEATS)]
    import layertrace
    from workloads import make_workload

    seeds = disorder_seeds(args.seed)
    tracer = layertrace.Tracer() if args.trace else None
    builds = []
    for repeat in range(SETUP_REPEATS):
        # Only the last set-up is traced, so each layer counts one set-up.
        traced = tracer is not None and repeat == SETUP_REPEATS - 1
        start = time.perf_counter()
        with tracer.patched() if traced else contextlib.nullcontext():
            workload = make_workload(args.workload, assqd, seeds)
        builds.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(builds)

    reference = ReferenceKernel(*workload.reference)
    reference()  # warm-up: the first eigh call loads LAPACK
    times, results = timed_phase(workload, reference, MIN_PASSES, args.seconds)
    passes = len(results)
    traced_results: list[list] = []
    if tracer is not None:
        with tracer.patched():
            traced_times, traced_results = timed_phase(workload, reference, 1, 0.0)

    untraced = [c for r in results for c in r]
    attempted = len(untraced) + sum(len(r) for r in traced_results)
    failed = sum(c.failed for r in results + traced_results for c in r)
    problems = check_outputs(results, traced_results)
    lat = latency_stats(untraced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment(assqd)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "disorder_seeds": list(seeds),
        "passes": passes,
        "cells_per_pass": len(results[0]),
        **times,
        "setup_s": setup_s,
        "import_s": imports,
        "build_s": builds,
        "run_ms_p50": lat["p50"],
        "run_ms_tail": lat["tail"],
        "run_ms_tail_percentile": lat["tail_pct"],
        "run_ms_samples": lat["count"],
        "median_err": median_error(results[0]),
        "failed_frac": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        metrics = layer_metrics(tracer, traced_times["cost_ref"], times["cost_ref"])
    else:
        metrics = {
            "cost_ref": {"value": times["cost_ref"], "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}: disorder seeds {list(seeds)}, {passes} pass(es) "
          f"of {len(results[0])} driver calls")
    print(f"  cost_ref    {times['cost_ref']:.4f} ref (one pass, unit medians over "
          f"{passes}, in runs of the reference kernel)")
    print(f"  cpu_s       {times['cpu_s']:.4f} s   (the same, CPU seconds)")
    print(f"  wall_s      {times['wall_s']:.4f} s   (the same, wall clock)")
    print(f"  ref_ms      {times['ref_ms']:.3f} ms  (median reference kernel run)")
    print(f"  setup_s     {setup_s:.4f} s   (median import of {len(imports)} + "
          f"median set-up of {len(builds)})")
    print(f"  run_ms_p50  {lat['p50']:.3f} ms  over {lat['count']} calls")
    print(f"  run_ms_tail {lat['tail']:.3f} ms  (p{lat['tail_pct']:.1f}, "
          f"{lat['beyond']} of {lat['count']} calls beyond)")
    print(f"  median_err  {report['median_err']:.6e}   (as-en 1-hop cells)")
    print(f"  failed_frac {failed}/{attempted} = {report['failed_frac']:.4f}")
    print(f"  peak_rss_mb {peak_rss_mb:.1f} MB")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:40s} {value['value']:.4f} {value['unit']}")
        if tracer.missing:
            print(f"  trace targets missing: {tracer.missing}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record = {
        "environment": env,
        "report": report,
        "metrics": metrics,
        "problems": problems,
        "rows": [{"key": list(c.key), "E_est": None if c.row is None else c.row.E_est,
                  "latency_ms": c.latency_ms, "error": c.error or
                  (c.row.terminated if c.failed else None)} for c in results[0]],
    }
    if tracer is not None:
        record["spans"] = tracer.span_records()
        record["counts"] = dict(tracer.counts)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
