"""vcmamba benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload nano_train|s448_eval|s224_train|all \
        [--seed N] [--seconds S] [--trace 0|1] [--tiny]
    python3 bench/run.py --write-reference

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with no instrumentation beyond two step-boundary hooks. ``--trace 1``
spends half its time untraced and half traced and reports the per-layer
metrics, including trace.overhead_pct, the traced against the untraced
median operation time. ``all`` runs the three workloads one after another,
each in a fresh process. ``--tiny`` shrinks every workload for the smoke
test (bench/test_smoke.py). ``--write-reference`` regenerates the canary
outputs in bench/reference.json; do that only with an explanation in
CHANGES.md, as for reference/train_log.csv.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Metrics are the end_to_end (untraced) or
per_layer (traced) names of BENCHMARK.json. Every other metric is printed
above it, by name with its unit; a traced run also writes its spans to
.bench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("nano_train", "s448_eval", "s224_train")

# Largest share of a traced operation's wall time that may fall outside
# every span (glue between instrumented calls).
UNATTRIBUTED_SHARE = 0.05


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit() -> str:
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
    return f"unknown ({name})"


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS loaded (numpy and scipy bundle their
    own), keyed by library file name."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    counts = {}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(lib).name] = int(fn())
                break
    return counts


def environment() -> list[str]:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    most = max(threads.values(), default=None)
    lines = [f"env.nproc = {nproc}",
             f"env.python = {platform.python_version()}",
             f"env.numpy = {numpy.__version__}",
             f"env.scipy = {scipy.__version__}",
             f"env.blas = {blas.get('name')} {blas.get('version')}",
             "env.blas_threads = " + (", ".join(f"{n} ({lib})" for lib, n in threads.items())
                                      or "unknown"),
             f"env.git_commit = {git_commit()}"]
    if most is not None and most > nproc:
        lines.append(f"env.WARNING = BLAS runs {most} threads on {nproc} CPUs; "
                     f"timings are oversubscribed")
    return lines


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or None when that percentile is below the median."""
    xs = sorted(values)
    k = len(xs) - 11
    if k < 0 or (k + 1) / len(xs) < 0.5:
        return None
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(run) -> tuple[dict[str, float], list[str]]:
    """JSON metrics (generic names) and the printed lines (named per mode)."""
    op_ms = [1e3 * t for t in run.op_s]
    n = len(op_ms)
    metrics = {"images_per_s": run.images / run.loop_s if run.loop_s > 0 else 0.0,
               "latency_ms_p50": statistics.median(op_ms) if op_ms else 0.0,
               "setup_s": statistics.median(run.setup_s) if run.setup_s else 0.0,
               "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    op = "train_step_ms" if run.mode == "train" else "eval_latency_ms"
    t = tail(op_ms)
    tail_text = (f"{t[0]:.3f} ms (p{t[1]:.1f}, n={n})" if t else
                 f"n/a ms (n={n}; a tail at or above p50 needs at least 20 samples)")
    lines = [f"{run.mode}_images_per_s = {metrics['images_per_s']:.4f} img/s "
             f"({run.images} images in {run.loop_s:.3f} s)",
             f"{op}_p50 = {metrics['latency_ms_p50']:.3f} ms (n={n})",
             f"{op}_tail = {tail_text}",
             f"setup_s = {metrics['setup_s']:.4f} s (median of {len(run.setup_s)} set-ups)",
             f"peak_rss_mib = {metrics['peak_rss_mib']:.1f} MiB "
             f"({run.guard_collections} memory-guard collections)"]
    return metrics, lines


def unit_of(name: str, units: dict[str, str]) -> str:
    if name in units:
        return units[name]
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "%" if name.endswith("_pct") else "ratio" if name.endswith("_ratio") else "count"


def per_layer(run, workload: str, layer_map: dict,
              units: dict[str, str]) -> tuple[dict[str, float], list[str], list[str]]:
    """Per-layer metrics, printed lines and failed trace checks."""
    metrics, accounting = run.tracer.summary()
    if run.op_s and run.traced_op_s:
        untraced, traced = statistics.median(run.op_s), statistics.median(run.traced_op_s)
        metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    metrics["trace.unattributed_pct"] = 100.0 * accounting["unattributed_share_median"]
    share = accounting["unattributed_share_max"]
    problems = [] if share <= UNATTRIBUTED_SHARE else [
        f"self times of a traced operation leave {100 * share:.1f}% of its wall time "
        f"unattributed (allowed {100 * UNATTRIBUTED_SHARE:.0f}%)"]
    lines = [f"trace.self_time_check = self times cover every traced operation to within "
             f"{100 * UNATTRIBUTED_SHARE:.0f}% of its wall time: worst "
             f"{100 * share:.2f}%, median {metrics['trace.unattributed_pct']:.2f}% "
             f"over {int(accounting['ops'])} operations"]
    for name in sorted(set(metrics) | set(layer_map["moves"])):
        value = f"{metrics[name]:.6g}" if name in metrics else "n/a"
        note = "" if name in metrics else f" (not exercised on {workload})"
        target = layer_map["moves"].get(name)
        lines.append(f"{name} = {value} {unit_of(name, units)}{note}"
                     + (f"    -> {target}" if target else ""))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"trace-{workload}-seed{run.seed}.json", "w") as f:
        json.dump({"metrics": metrics, "accounting": accounting, "spans": run.tracer.spans()}, f)
    return metrics, lines, problems


def run_one(args, bench: dict) -> int:
    import workloads
    from tracing import Tracer

    layer_map = json.loads((HERE / "layer_map.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                        tiny=args.tiny, workdir=workdir, reference=reference,
                        tracer=Tracer() if args.trace else None)
    print(f"workload = {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}{', tiny' if args.tiny else ''})")
    for line in environment():
        print(line)
    try:
        workloads.WORKLOADS[args.workload](run)
    except Exception as exc:  # report the failure in the result line, not as a crash
        traceback.print_exc()
        run.record(False, f"{args.workload} raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:     # end-to-end numbers come from untraced runs only
        source, lines, problems = per_layer(run, args.workload, layer_map, units)
        wanted = [m["name"] for m in bench["per_layer"]]
    else:
        (source, lines), problems = end_to_end(run), []
        wanted = [m["name"] for m in bench["end_to_end"]]
    problems += [f"metric {name} was not measured on {args.workload}"
                 for name in wanted if not source.get(name)]
    lines.append(f"failed_share = {run.failed / max(run.attempted, 1):.4f} ratio "
                 f"({run.failed} of {run.attempted} operations)")
    for line in lines:
        print(line)
    for problem in run.problems + problems:
        print(f"FAILED: {problem}")
    result = {"correct": run.failed == 0 and not problems, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": float(source.get(name, 0.0)), "unit": units[name]}
                          for name in wanted}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one at a time."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate bench/reference.json")
    args = parser.parse_args()

    if not (ROOT / "src" / "vcmamba" / "__init__.py").is_file():
        fail(f"no vcmamba sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        fail(f"{bench_file} is missing")
    bench = json.loads(bench_file.read_text())
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])

    if args.write_reference:
        import workloads
        (HERE / "reference.json").write_text(json.dumps(workloads.write_reference(), indent=1)
                                             + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
