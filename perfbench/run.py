"""Benchmark of the loewner command line: one client, closed loop, in process.

    python3 perfbench/run.py --workload fields-autonomous --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.
Each job feeds one seeded document to `loewner.cli.main` (`chain` then
`verify` for a field, `normalform` for a family) and checks the reports.
Jobs run in rounds of the workload's slots; a round starts only while the
longest round so far still fits into --seconds, and the first always runs.
With --trace 1 every job is traced and the run reports per-layer numbers;
the end-to-end numbers come from runs with --trace 0.  Set-up (import,
input generation, one warm-up command) is timed in this process and in
SETUPS - 1 child processes started after the timed rounds.

Human-readable lines go first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MAX_ROUNDS = 16
WARMUP_ENTROPY = (0x5EED, 0x5EED, 1)   # outside every (seed, job) pair
SETUPS = 3                              # set-ups timed per run
SETUP_PASSES = 6                        # probe passes after each set-up
CHILD_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # time one set-up, print it as JSON and exit (used for SETUPS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas_threads(np) -> str:
    """Threads the bundled OpenBLAS will use, asked from the library."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return str(getattr(handle, symbol)())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def _metadata(np, scipy) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(np),
        "commit": _git_commit(),
    }


def _geometric_median(groups: dict) -> float:
    """Geometric mean over groups of each group's median.

    Grouping by slot keeps the statistic from resting on the one or two
    jobs that happen to sit mid-distribution, and every slot weighs the
    same whatever its cost.
    """
    return math.exp(statistics.fmean(math.log(statistics.median(v))
                                     for v in groups.values()))


def _high_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def _child_setup(args) -> dict:
    """One set-up in a fresh process: its wall seconds and that process's
    probe seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"set-up in a child process exited {out.returncode}: "
                           f"{out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    # single-threaded baseline: BLAS reads these when numpy is first imported
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "loewner" / "cli.py").is_file():
        print(f"no package sources at {src / 'loewner'}", file=sys.stderr)
        return 2

    # ---- set-up: import, the first round's inputs, one warm-up command
    t_import = time.perf_counter()
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import loewner.cli  # noqa: F401  (timed: the command line imports this)
    import_s = time.perf_counter() - t_import
    if Path(loewner.cli.__file__).resolve().parent != (src / "loewner").resolve():
        print(f"imported loewner from {loewner.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    import inputs
    import spans
    import probe as speed
    from workloads import WORKLOADS, run_job, warm_up

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    slots = WORKLOADS[args.workload]
    seed = args.seed % 2 ** 64

    def documents(r: int) -> list[dict]:
        return [slot.make(np.random.default_rng([seed, r * len(slots) + i]))
                for i, slot in enumerate(slots)]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        t0 = time.perf_counter()
        first_round = documents(0)
        generate_s = time.perf_counter() - t0
        warm_slot = slots[-1]
        warm_doc = warm_slot.make(np.random.default_rng(WARMUP_ENTROPY))
        t0 = time.perf_counter()
        warm = warm_up(warm_slot, warm_doc, workdir)
        warmup_s = time.perf_counter() - t0
        setup_wall_s = import_s + generate_s + warmup_s
        # processes of one run can run at different speeds, so each set-up
        # is scaled by probe passes taken in its own process, right after it
        probe = speed.SpeedProbe()
        probe.record(SETUP_PASSES)
        setup = {"wall_s": setup_wall_s, "probe_s": statistics.median(probe.passes)}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("meta " + " ".join(f"{k}={v}" for k, v in _metadata(np, scipy).items()))
        print(f"setup import_s={import_s:.4f} generate_s={generate_s:.4f} "
              f"warmup_s={warmup_s:.4f} wall_s={setup_wall_s:.4f} "
              f"warmup={warm_slot.label} input={warm.input_sha256} "
              f"{'FAILED ' + '; '.join(warm.failures + warm.wrong) if warm.failed else 'ok'}")

        # ---- timed rounds
        tracer = spans.Tracer()
        jobs = []
        round_times = []
        t_start = time.perf_counter()
        for r in range(MAX_ROUNDS):
            elapsed = time.perf_counter() - t_start
            if round_times and elapsed + max(round_times) > args.seconds:
                break
            t_round = time.perf_counter()
            for i, (slot, doc) in enumerate(zip(slots, first_round if r == 0 else documents(r))):
                index = r * len(slots) + i
                tracer.job = index
                with tracer if args.trace else contextlib.nullcontext():
                    job = run_job(index, slot, doc, workdir, probe)
                jobs.append((slot, job))
                status = "ok" if not job.failed else \
                    "FAILED " + "; ".join(job.failures + job.wrong)
                times = " ".join(f"{k}_s={v:.4f}" for k, v in job.seconds.items())
                reports = " ".join(f"{k}={v}" for k, v in job.reports.items())
                print(f"job {index} slot={slot.label} {job.shape} "
                      f"input={job.input_sha256} {times} {reports} {status}")
            round_times.append(time.perf_counter() - t_round)
        timed_s = time.perf_counter() - t_start
        probe.record()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- set-up again in fresh processes; the median is the metric
    setups = [setup] + [_child_setup(args) for _ in range(SETUPS - 1)]
    scale = probe.scale()

    # ---- end-to-end numbers
    failed = sum(j.failed for _, j in jobs)
    wrong = sum(bool(j.wrong) for _, j in jobs)
    by_slot: dict[str, list] = {}
    for slot, j in jobs:
        by_slot.setdefault(slot.label, []).append(j.gated_s(slot))
    job_s = _geometric_median(by_slot)
    job_ref_s = job_s * scale
    setup_s = statistics.median(s["wall_s"] * speed.scale(s["probe_s"]) for s in setups)
    traced = " (traced jobs)" if args.trace else ""
    print(f"speed probe median {statistics.median(probe.passes):.5f} s over "
          f"{len(probe.passes)} passes; 'ref' times are scaled by {scale:.4f} to "
          f"{speed.REFERENCE_S} s")
    gated = {slot.label: "+".join(slot.gated) for slot in slots}
    for label, values in by_slot.items():
        print(f"slot {label} median {gated[label]} {statistics.median(values):.4f} s "
              f"wall over {len(values)} jobs")
    print(f"metric job_ref_s = {job_ref_s:.4f} s{traced} (ref; geometric mean over "
          f"{len(by_slot)} slots of the median job, {len(jobs)} jobs, failed jobs "
          f"as measured)")
    print(f"metric job_s = {job_s:.4f} s (the same in wall seconds)")
    for command in ("chain", "verify", "normalform"):
        values = [j.seconds[command] for _, j in jobs if command in j.seconds]
        if not values:
            continue
        high = _high_percentile(values)
        extra = f", p{high[0]} {high[1]:.4f} s" if high else ""
        print(f"metric {command}_s = {statistics.median(values):.4f} s{traced} "
              f"(median of {len(values)}{extra})")
    ok = len(jobs) - failed
    print(f"metric jobs_per_min = {60.0 * ok / sum(j.total_s for _, j in jobs):.4f} "
          f"1/min ({ok} completed jobs in {sum(j.total_s for _, j in jobs):.1f} s)")
    print(f"metric failed_frac = {failed / len(jobs):.4f} ({failed} of {len(jobs)} jobs; "
          f"{wrong} with wrong reports)")
    print(f"metric setup_s = {setup_s:.4f} s (ref; median of {SETUPS} set-ups, wall "
          + ", ".join(f"{s['wall_s']:.4f} s at probe {s['probe_s']:.5f} s" for s in setups)
          + ")")
    print(f"metric peak_rss_mb = {peak_rss_mb:.1f} MB")
    print(f"inputs sha256 {inputs.digest({'inputs': [j.input_sha256 for _, j in jobs]})}")
    print(f"reports sha256 {inputs.digest({'reports': [j.reports for _, j in jobs]})}")
    print(f"timed {timed_s:.1f} s in {len(round_times)} rounds")

    if args.trace:
        layer = spans.layer_metrics(tracer.spans, len(jobs))
        overhead = tracer.overhead_s()
        layer["trace.overhead_frac"] = overhead / (sum(j.total_s for _, j in jobs) - overhead)
        units = spans.metric_units()
        for name in units:
            print(f"layer {name} = {layer[name]:.6g} {units[name]}")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {
            "job_ref_s": {"value": job_ref_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": wrong == 0, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
