"""fedmark benchmark: closed-loop passes of one workload in one process.

    python3 benchmark/run.py --workload honest --seed 0 --seconds 25 --trace 0

Run from the repository root. The program under test is imported from
`src/`. Each pass starts when the previous one ends; passes go on until
`--seconds` have passed and at least three have run. Every pass's outputs are
checked: artifact sha256 must repeat across passes of one seed and, for
seed 0, match `benchmark/digests.json`; each workload adds its own check.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates untraced and traced passes and prints the per-layer metrics: the
traced passes wrap fedmark's functions from outside (see tracer.py), and
the gap between traced and untraced wall time is the tracing overhead. The
process is single-threaded and has no queue or retry path, so no layer has
waiting time and none is reported.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The full record (environment, sample counts,
min/max, per-pass times, span trees) goes to `.bench_out/` in the
repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPS = 5
MIN_PASSES = 3  # a run makes at least this many passes, even past --seconds
IMPORT_PROBE = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import fedmark.cli; print(time.perf_counter() - t)"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    return {"n": len(values), "median": median(values), "min": min(values), "max": max(values)}


def src_fingerprint():
    """sha256 and line count over the package sources."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def environment(nproc):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_sha, src_lines = src_fingerprint()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "git_sha": sha or "none",
        "src_sha256": src_sha,
        "src_lines": src_lines,
    }


def import_seconds():
    """Time `import fedmark.cli` in a fresh interpreter, as a user pays it."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(probe.stdout.strip())


# -- passes ---------------------------------------------------------------------


class Passes:
    """Runs passes, checks their outputs and keeps per-pass records."""

    def __init__(self, workload, state, pins):
        self.workload = workload
        self.state = state
        self.pins = pins
        self.reference = None
        self.records = []

    def run(self, traced=False, tracer=None):
        wl, state = self.workload, self.state
        record = {"traced": traced, "ok": False, "problems": []}
        wl.prepare(state)
        start = time.perf_counter()
        try:
            if traced:
                tracer.reset()
                tracer.install()
                try:
                    with tracer.span():
                        wl.run_pass(state)
                finally:
                    tracer.uninstall()
            else:
                wl.run_pass(state)
            record["wall_s"] = time.perf_counter() - start
            digests, nbytes, problems = wl.check(state)
        except Exception:  # a pass that raises counts as failed; the run goes on
            record["wall_s"] = time.perf_counter() - start
            record["problems"].append(traceback.format_exc())
            log(record["problems"][-1])
            self.records.append(record)
            return record
        record["artifact_bytes"] = nbytes
        if self.reference is None:
            self.reference = digests
        if digests != self.reference:
            problems.append("artifact digests differ from the first pass of this run")
        if self.pins is not None and digests != self.pins:
            problems.append("artifact digests differ from the seed-0 pins in digests.json")
        record["problems"] = problems
        record["ok"] = not problems
        for problem in problems:
            log(f"{wl.name}: {problem}")
        self.records.append(record)
        return record

    def walls(self, traced):
        return [r["wall_s"] for r in self.records if r["ok"] and r["traced"] == traced]

    @property
    def failed(self):
        return sum(not r["ok"] for r in self.records)


# -- per-layer metrics ----------------------------------------------------------

# Metrics of work done during set-up rather than in a pass.
SETUP_METRICS = {"engine.build_dataset.s", "engine.build_partition.s", "seeding.derive_seed.calls"}
STAT_SCALE = {"p50_us": ("p50_s", 1e6), "p99_us": ("p99_s", 1e6), "p50_ms": ("p50_s", 1e3), "p99_ms": ("p99_s", 1e3)}


def layer_value(name, summary, setup, extra, pass_s):
    """Resolve one per-layer metric name against a traced pass summary."""
    if name in extra:
        return extra[name]
    func, stat = name.rsplit(".", 1)
    source = setup if name in SETUP_METRICS else summary
    if func not in source:
        raise KeyError(f"per-layer metric {name} names no traced function")
    entry = source[func]
    if stat == "share":  # share of the traced pass's wall time
        return entry["s"] / pass_s
    if stat == "accept_ratio":  # base: calls
        return entry["true_results"] / entry["calls"] if entry["calls"] else 0.0
    if stat in STAT_SCALE:
        key, scale = STAT_SCALE[stat]
        return entry[key] * scale
    return entry[stat]


def is_count(unit):
    return unit in ("count", "flop", "B")


def traced_pass_values(spec, summary, setup_summary, record, overhead, plain_wall, root):
    """Every per-layer metric of one traced pass; `root` names its pass span."""
    cache = record["cache"]
    mt = summary["nn.main_task_loss_and_grads"]
    lookups = cache.hits + cache.misses
    extra = {
        # computed flops of the minibatch steps over their measured time
        "nn.step.flops_per_s": mt["flops"] / mt["s"] if mt["s"] else 0.0,
        "watermark.matrix_cache.hit_ratio": cache.hits / lookups if lookups else 0.0,
        "watermark.matrix_cache.lookups": lookups,
        "cli.write_run_artifacts.bytes": record["artifact_bytes"] if summary["cli.write_run_artifacts"]["calls"] else 0,
        "trace.spans": sum(e["calls"] for e in summary.values()),
        "trace.wall_s": record["wall_s"],
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / plain_wall,
    }
    pass_s = summary[root]["s"]
    return {m["name"]: layer_value(m["name"], summary, setup_summary, extra, pass_s) for m in spec["per_layer"]}


def check_counts(values, path):
    """Counts must repeat exactly across traced runs of one seed and one
    source tree; the first run records them."""
    if not path.is_file():
        return [], True
    previous = json.loads(path.read_text())
    return [
        f"count {name} is {value}; an earlier traced run of this seed had {previous.get(name)}"
        for name, value in values.items()
        if previous.get(name) != value
    ], False


# -- main -----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_setup(workload, seed, work):
    """Set up SETUP_REPS times. Each repetition pays the package import in a
    fresh interpreter and then the workload's set-up in this process;
    setup_s is the median of their sums."""
    imports, setups, states = [], [], []
    for _ in range(SETUP_REPS):
        imports.append(import_seconds())
        start = time.perf_counter()
        states.append(workload.setup(seed, str(work)))
        setups.append(time.perf_counter() - start)
    state = states[-1]
    problems = []
    if any(s["size"] != state["size"] or s.get("source") != state.get("source") for s in states):
        problems.append("repeated set-up gave different inputs or source-run digests")
    setup_s = median([i + s for i, s in zip(imports, setups)])
    return state, setup_s, {"import_s": imports, "setup_s": setups}, problems


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fedmark" / "__init__.py").is_file() or not spec_path.is_file():
        log(f"error: run from a fedmark checkout; {SRC / 'fedmark'} or {spec_path} is missing")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("error: --seed must be non-negative and --seconds positive")
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"error: unknown workload {args.workload!r}")
        return 2

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import numpy as np
    import tracer as tracing
    from workloads import SETUP_REQUIRED, TRACE_TARGETS, WORKLOADS

    from fedmark import config, watermark

    workload = WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ[config.OUTPUT_ROOT_ENV] = str(work)
    pins = json.loads((BENCH_DIR / "digests.json").read_text())[args.workload] if args.seed == 0 else None
    env = environment(nproc)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    problems = []
    tracer = None

    if args.trace:
        tracer = tracing.Tracer("fedmark", TRACE_TARGETS)
        tracer.install()
        try:
            state = workload.setup(args.seed, str(work))
        finally:
            tracer.uninstall()
        setup_summary = tracer.summary()
        for name in SETUP_REQUIRED:
            if setup_summary[name]["calls"] == 0:
                problems.append(f"set-up made no call to {name}")
    else:
        state, setup_s, result["setup"], found = timed_setup(workload, args.seed, work)
        problems += found

    # Closed loop: the next pass starts when the previous one ends. A traced
    # run alternates untraced and traced passes, starting untraced.
    passes = Passes(workload, state, pins)
    began = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes.records) % 2 == 1
        if traced:
            before = watermark.cached_embedding_matrix.cache_info()
        record = passes.run(traced=traced, tracer=tracer)
        if traced and record["ok"]:
            after = watermark.cached_embedding_matrix.cache_info()
            record["summary"] = tracer.summary()
            record["cache"] = after._replace(hits=after.hits - before.hits, misses=after.misses - before.misses)
            record["spans"] = tracer.span_arrays()
        if time.perf_counter() - began >= args.seconds and len(passes.records) >= MIN_PASSES:
            break

    attempted, failed = len(passes.records), passes.failed
    metrics, stats = {}, {}
    if not args.trace:
        walls = passes.walls(False)
        if walls:
            values = {
                "wall_s": walls,
                "setup_s": [setup_s],
                "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
                "passed_share": [(attempted - failed) / attempted],
            }
            for m in spec["end_to_end"]:
                stats[m["name"]] = spread(values[m["name"]])
        else:
            problems.append("no pass succeeded")
    else:
        traced = [r for r in passes.records if r["traced"] and r["ok"]]
        plain_walls = passes.walls(False)
        if traced and plain_walls:
            for record in traced:
                for name in workload.required:
                    if record["summary"][name]["calls"] == 0:
                        problems.append(f"traced pass made no call to {name}")
            plain_wall = median(plain_walls)
            overhead = median([r["wall_s"] for r in traced]) - plain_wall
            per_pass = [
                traced_pass_values(spec, r["summary"], setup_summary, r, overhead, plain_wall, tracing.ROOT)
                for r in traced
            ]
            for m in spec["per_layer"]:
                values = [p[m["name"]] for p in per_pass]
                if is_count(m["unit"]) and len(set(values)) > 1:
                    problems.append(f"count {m['name']} differs between traced passes: {values}")
                stats[m["name"]] = spread(values)
            counts = {m["name"]: stats[m["name"]]["median"] for m in spec["per_layer"] if is_count(m["unit"])}
            counts_path = work / f"counts-{env['src_sha256'][:16]}.json"
            found, first = check_counts(counts, counts_path)
            problems += found
            if first and not problems and not failed:
                counts_path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
            np.savez(
                work / "spans.npz",
                names=np.array(tracer.names),
                **{f"pass{i}_{k}": v for i, r in enumerate(traced) for k, v in r["spans"].items()},
            )
        else:
            problems.append("no traced or no untraced pass succeeded")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, s in stats.items():
        metrics[name] = {"value": s["median"], "unit": units[name]}
    correct = not problems and failed == 0
    result.update(
        size=state["size"],
        digests=passes.reference,
        passes=[{k: v for k, v in r.items() if k not in ("summary", "cache", "spans")} for r in passes.records],
        stats=stats,
        problems=problems,
    )
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"fedmark benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"input size: {json.dumps(state['size'], sort_keys=True)}")
    for name, s in stats.items():
        print(f"  {name:<52} {s['median']:>14.6g} {units[name]:<8} n={s['n']} min={s['min']:.6g} max={s['max']:.6g}")
    if args.trace:
        print("computed from shapes, not measured: *.flops, *.bytes of nn/watermark kernels, nn.step.flops_per_s")
        print("waiting time: none; the process is single-threaded with no queue or retry path")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
