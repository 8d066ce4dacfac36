"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Run from the repository root: the program is imported from ``src/``. The
workload runs as a closed loop in this one process: one client, one
thread, the next operation sent only when the previous one returned.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every
second operation and prints the per-layer metrics, with the untraced
operations between them as the baseline for the tracing overhead. The
metrics and their units are the ones ``BENCHMARK.json`` lists. The last line
of standard output is the JSON result; a full report (and, traced, every
span) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-ups per untraced run: one before the measured operations, the rest
# spread evenly between them, so their median follows the machine's speed
# over the whole run rather than in a few seconds of it
SETUPS = 9

NO_WAITING = ("waiting: none - one client and one thread, no queue, so no layer waits; "
              "no wait metrics are reported")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "predict-mixed", "cv-plan"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def import_program():
    """Import ``rubric`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rubric" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {src / 'rubric'} is missing")
    for var in THREAD_VARS:  # BLAS reads these when numpy is first imported
        os.environ[var] = str(min(int(os.environ.get(var) or NPROC), NPROC))
    sys.path.insert(0, str(src))
    import rubric

    if Path(rubric.__file__).resolve().parent != (src / "rubric").resolve():
        sys.exit(f"perfbench: imported rubric from {rubric.__file__}, not from {src}")


def blas_threads_in_force():
    """The thread count OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def machine_record():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # the ceiling keeps git from finding a repository above this checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                                capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "blas_threads_in_force": blas_threads_in_force(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def measure(workload, seconds, samples, setups, recorder=None):
    """Run operations until the next one would overrun ``seconds``; at least one.

    Untraced, set-ups are repeated between the operations, in step with the
    time spent on them, until there are ``SETUPS``; their time does not count
    towards ``seconds``. With a recorder, there are no more set-ups, and
    operations alternate untraced and traced, so machine drift affects both
    sides of the overhead ratio alike; at least one of each runs.
    """
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        traced = recorder is not None and len(samples) % 2 == 1
        sample = {"traced": traced}
        try:
            with recorder.tracing() if traced else nullcontext():
                result = workload.op()
            sample["wall_s"] = time.perf_counter() - t0
            problems = workload.check(result)
            sample.update(items=result.items, seconds=result.seconds, quality=result.quality)
            if samples and samples[0].get("quality") is not None \
                    and result.quality != samples[0]["quality"]:
                problems.append(f"MCRMSE {result.quality!r} differs from the first "
                                f"operation's {samples[0]['quality']!r}")
        except Exception as exc:  # a failed operation is counted; the loop goes on
            traceback.print_exc()
            problems = [f"{type(exc).__name__}: {exc}"]
        sample["problems"] = problems
        samples.append(sample)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        cycle = time.perf_counter() - t0
        spent += cycle
        due = min(SETUPS, 1 + int((SETUPS - 1) * spent / seconds)) if recorder is None else 0
        while len(setups) < due:
            setups.append(timed_setup(workload))
        if spent + cycle > seconds and (recorder is None or len(samples) >= 2):
            break
    while recorder is None and len(setups) < SETUPS:
        setups.append(timed_setup(workload))


def end_to_end(samples, setup_s):
    good = [s for s in samples if not s["problems"]]
    # throughput over the whole run: train makes only two or three long
    # operations per run, too few for a median of per-op rates to help
    seconds = sum(s["seconds"] for s in good)
    return {
        "setup_s": setup_s,
        "items_per_s": sum(s["items"] for s in good) / seconds if good else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mcrmse": statistics.median(s["quality"] for s in good) if good else 0.0,
        "success_frac": len(good) / len(samples),
    }


def with_units(values, kind):
    """Pair each value with its unit from ``BENCHMARK.json``, which must list
    exactly these metrics under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if values.keys() != units.keys():
        sys.exit(f"perfbench: BENCHMARK.json's {kind} metrics and the measured ones differ "
                 f"in {sorted(values.keys() ^ units.keys())}")
    return {name: (value, units[name]) for name, value in values.items()}


def print_end_to_end(aliases, metrics):
    for name, (value, unit) in metrics.items():
        alias = aliases.get(name)
        label = f"{alias} (as {name})" if alias else name
        print(f"{label} = {value!r} {unit}")
    print(f"failed_frac = {1.0 - metrics['success_frac'][0]!r} fraction (1 - success_frac)")


def print_layers(spans, recorder, metrics, untraced_walls):
    traced = [s for s in recorder.spans if s[0] == spans.ROOT]
    traced_s = statistics.median(end - start for _, _, start, end, _ in traced)
    print(f"traced operations: {len(traced)}; median wall {traced_s:.4f} s traced, "
          f"{statistics.median(untraced_walls):.4f} s untraced "
          f"(overhead {metrics['trace.overhead_frac'][0]:.3f})")
    layers_s = sum(t for t, _, name in spans.top_self_times(recorder.spans, None)
                   if name != spans.ROOT)
    print(f"layer self times sum to {layers_s:.4f} s per operation: "
          f"{layers_s / statistics.median(untraced_walls):.3f} of the untraced wall")
    print("top self times per operation: self_s calls name")
    for self_s, calls, name in spans.top_self_times(recorder.spans):
        print(f"  {self_s:10.4f} {calls:10.0f} {name}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(NO_WAITING)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import spans
    import workloads

    import_s = time.perf_counter() - STARTED
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(work))
    samples: list[dict] = []
    recorder = None
    try:
        setups = [timed_setup(workload)]
        traffic = workload.traffic()
        if args.trace:
            recorder = spans.Recorder(spans.layer_targets())
        measure(workload, args.seconds, samples, setups, recorder)
        if args.trace:
            untraced_walls = [s["wall_s"] for s in samples
                              if not s["traced"] and not s["problems"]] or [float("nan")]
            metrics = with_units(spans.layer_metrics(recorder.spans, untraced_walls),
                                 "per_layer")
        else:
            metrics = with_units(end_to_end(samples, import_s + statistics.median(setups)),
                                 "end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in samples if s["problems"])
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "aliases": {"items_per_s": workload.rate_name, "mcrmse": workload.quality_name},
        "machine": machine_record(), "traffic": traffic, "import_s": import_s,
        "setup_repeats_s": setups, "samples": samples,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(report["machine"]))
    print("traffic " + json.dumps(traffic))
    print("aliases " + json.dumps(report["aliases"]))
    print(f"operations: {len(samples)} attempted, {failed} failed; "
          f"setup {', '.join(f'{s:.3f}' for s in setups)} s after {import_s:.3f} s of imports")
    if args.trace:
        recorder.write(str(OUT / f"spans-{stem}.csv"))
        print_layers(spans, recorder, metrics, untraced_walls)
    else:
        print_end_to_end(report["aliases"], metrics)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        # a NaN is not JSON; it only arises when operations failed, so correct is false
        "metrics": {name: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
