"""Benchmark command for skillbc: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {pretrain,phase2,rollout} --seed N \
        --seconds S --trace {0,1} [--size {desk,tiny}]

Run it from the root of a checkout; it imports the package from `src/` and
writes only under `.bench_out/`. With `--trace 0` it sets up the workload
`setup_repeats` times (reporting the median set-up time), then runs timed
stage units until the next one would pass `--seconds` (at least two), and
reports the end-to-end metrics; peak RSS is taken after the set-ups and the
first unit, since repeating units only adds allocator fragmentation. With `--trace 1` it sets up once under the tracer, runs
untraced units for half the budget, then as many traced units, and reports
the per-layer metrics plus the tracing overhead. Spans go to
`.bench_out/trace-<workload>-seed<N>.json`.

Every run prints human-readable lines first (provenance, each metric with its
unit, the error rate with its base, the output digest), and as its last line
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# One BLAS thread: the arrays here are small, and a second thread only adds
# noise on a shared 2-core machine. Set before numpy is imported.
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "skill.loss_forward_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.nodes_per_step": "count",
    "optim.adam_ms": "ms",
    "data.pair_batch_ms": "ms",
    "skill.heldout_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.bytes_written": "bytes",
    "retrieval.embed_s": "s",
    "retrieval.windows_embedded": "count",
    "retrieval.distance_s": "s",
    "retrieval.distance_calls": "count",
    "retrieval.pairs_per_s": "1/s",
    "retrieval.rank_ms": "ms",
    "policy.forward_ms": "ms",
    "nn.lstm_step_us.train": "us",
    "nn.lstm_step_us.infer_batch": "us",
    "nn.lstm_step_us.infer_b1": "us",
    "env.play_ms": "ms",
    "env.demo_ms": "ms",
    "env.demo_attempts": "count",
    "env.demo_failures": "count",
    "data.write_dataset_ms": "ms",
    "env.step_us": "us",
    "skill.decode_step_us": "us",
    "policy.query_us": "us",
    "policy.bc_query_us": "us",
    "env.episode_ms": "ms",
    "env.episode_ms_p90": "ms",
    "checkpoint.load_ms": "ms",
    "data.load_dataset_ms": "ms",
    "trace_overhead_ratio": "ratio",
    "pretrain_steps_per_s": "1/s",
    "gen_transitions_per_s": "1/s",
    "eval_env_steps_per_s": "1/s",
    "error_rate": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["pretrain", "phase2", "rollout"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["desk", "tiny"], default="desk",
                   help="tiny: seconds-long self-check sizes")
    return p.parse_args(argv)


def provenance(seed: int) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{ {'Data': 'd', 'Instruction': 'i'}.get(kind, '')}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS,
            "git_commit": git_commit(), "src_sha256": src.hexdigest()[:16],
            "seed": seed}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
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


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


@dataclass
class Units:
    times: list = field(default_factory=list)   # seconds per unit
    work: list = field(default_factory=list)    # work items per second per unit
    rates: list = field(default_factory=list)   # stage rates per unit
    first_peak_mb: float = 0.0                  # peak RSS after the first unit


def run_units(wl, first: int, budget: float | None = None, min_units: int = 1,
              count: int | None = None, tracer=None) -> Units:
    """Time stage units until the next would pass `budget` seconds (but at least
    `min_units`), or exactly `count` units.

    Output checks run between units, outside the timed interval and the tracer.
    """
    units = Units()
    k = first
    while True:
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        try:
            items, outputs = wl.unit(k)
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if k == first:
            units.first_peak_mb = peak_rss_mb()
        units.times.append(elapsed)
        units.work.append(items / elapsed)
        units.rates.append(wl.stage_rates())
        wl.check(k, outputs)
        wl.discard_files()
        k += 1
        n = len(units.times)
        if count is not None:
            if n >= count:
                return units
        elif n >= min_units and sum(units.times) + statistics.median(units.times) > budget:
            return units


def median_rate(rates: list[dict], name: str) -> float:
    values = [r[name] for r in rates if name in r]
    return statistics.median(values) if values else 0.0


def end_to_end(wl, sizes, seconds: float) -> dict:
    setup_times = []
    for k in range(sizes.setup_repeats):
        start = perf_counter()
        wl.setup(k)
        setup_times.append(perf_counter() - start)
        wl.discard_files()
    units = run_units(wl, 0, budget=seconds, min_units=2)
    ledger = wl.ledger
    items = statistics.median(units.work) * statistics.median(units.times)
    print(f"units: {len(units.times)} x {items:.0f} {wl.work_unit}, seconds "
          + " ".join(f"{t:.3f}" for t in units.times)
          + "; set-ups: " + " ".join(f"{t:.3f}" for t in setup_times))
    for name in ("pretrain_steps_per_s", "gen_transitions_per_s", "eval_env_steps_per_s"):
        if any(name in r for r in units.rates):
            print(f"{name} {median_rate(units.rates, name):.6g} 1/s")
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(units.times),
        "work_per_s": statistics.median(units.work),
        "peak_rss_mb": units.first_peak_mb,
        "ok_ratio": (ledger.attempted - ledger.failed) / max(1, ledger.attempted),
    }


def per_layer(wl, seconds: float, trace_path: Path) -> dict:
    import numpy as np
    import tracing

    tracer = tracing.Tracer()
    with tracer:
        wl.setup(0)
    wl.discard_files()
    plain = run_units(wl, 0, budget=seconds / 2)
    untraced, rates = plain.times, plain.rates
    n = len(untraced)
    tracer.phase = "stage"
    traced = run_units(wl, n, count=n, tracer=tracer).times
    tracer.dump(trace_path)
    if tracer.missing:
        print(f"trace: missing hooks (reported as 0): {', '.join(tracer.missing)}")

    ms = tracing.median_ms

    def per_unit(value):
        return value / n

    def agg_us(name):
        count, total = tracer.aggregate(name)
        return 1e6 * total / count if count else 0.0

    def p90_ms(values):
        return 1e3 * float(np.percentile(values, 90)) if values else 0.0

    distance = tracer.durations("retrieval.distance")
    backward_calls = tracer.extra("autodiff.backward_calls")
    episodes = tracer.durations("env.episode")
    ledger = wl.ledger
    metrics = {
        "skill.loss_forward_ms": ms(tracer.durations("skill.loss_forward")),
        "autodiff.backward_ms": ms(tracer.durations("autodiff.backward")),
        "autodiff.nodes_per_step": (tracer.extra("autodiff.nodes") / backward_calls
                                    if backward_calls else 0.0),
        "optim.adam_ms": ms(tracer.durations("optim.adam")),
        "data.pair_batch_ms": ms(tracer.durations("data.pair_batch")),
        "skill.heldout_ms": ms(tracer.durations("skill.heldout")),
        "checkpoint.save_ms": ms(tracer.durations("checkpoint.save")),
        "checkpoint.bytes_written": per_unit(tracer.extra("checkpoint.bytes")),
        "retrieval.embed_s": per_unit(sum(tracer.durations("retrieval.embed"))),
        "retrieval.windows_embedded": per_unit(tracer.extra("retrieval.windows")),
        "retrieval.distance_s": per_unit(sum(distance)),
        "retrieval.distance_calls": per_unit(len(distance)),
        "retrieval.pairs_per_s": (tracer.extra("retrieval.pairs") / sum(distance)
                                  if distance else 0.0),
        "retrieval.rank_ms": 1e3 * per_unit(tracer.self_total("retrieval.rank")),
        "policy.forward_ms": 1e-3 * agg_us("policy.forward.train"),
        "nn.lstm_step_us.train": agg_us("nn.lstm_step.train"),
        "nn.lstm_step_us.infer_batch": agg_us("nn.lstm_step.infer_batch"),
        "nn.lstm_step_us.infer_b1": agg_us("nn.lstm_step.infer_b1"),
        "env.play_ms": ms(tracer.durations("env.play")),
        "env.demo_ms": ms(tracer.durations("env.demo")),
        "env.demo_attempts": per_unit(len(tracer.durations("env.demo"))),
        "env.demo_failures": per_unit(tracer.error_count("env.demo")),
        "data.write_dataset_ms": ms(tracer.durations("data.write_dataset")),
        "env.step_us": agg_us("env.step"),
        "skill.decode_step_us": agg_us("skill.decode_step"),
        "policy.query_us": agg_us("policy.query"),
        "policy.bc_query_us": agg_us("policy.bc_query"),
        "env.episode_ms": ms(episodes),
        "env.episode_ms_p90": p90_ms(episodes),
        "checkpoint.load_ms": ms(tracer.durations("checkpoint.load")),
        "data.load_dataset_ms": ms(tracer.durations("data.load_dataset", phase="setup")),
        "trace_overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        "pretrain_steps_per_s": median_rate(rates, "pretrain_steps_per_s"),
        "gen_transitions_per_s": median_rate(rates, "gen_transitions_per_s"),
        "eval_env_steps_per_s": median_rate(rates, "eval_env_steps_per_s"),
        "error_rate": ledger.failed / max(1, ledger.attempted),
    }
    assumed = getattr(wl, "eval_steps", None)
    counted = tracer.aggregate("env.step")[0] / n
    if assumed is not None and counted != assumed:
        print(f"note: {counted:.0f} evaluation env steps per unit, not the {assumed} "
              "that eval_env_steps_per_s and work_per_s assume")
    print(f"units: {n} untraced + {n} traced; spans: {len(tracer.spans)} -> "
          f"{trace_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "skillbc" / "__init__.py").is_file():
        print(f"error: no skillbc package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    sizes = workloads.SIZES[args.size]
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](sizes, args.seed, workdir)
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    try:
        if args.trace:
            values = per_layer(wl, args.seconds,
                               OUT / f"trace-{args.workload}-seed{args.seed}.json")
            units = PER_LAYER
        else:
            values = end_to_end(wl, sizes, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = wl.ledger
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / max(1, ledger.attempted):.4f}")
    for reason, count in sorted(ledger.reasons.items()):
        print(f"  failed {count}x: {reason}")
    print(f"digest {wl.digests[0] if wl.digests else None}")
    result = {
        "correct": not ledger.incorrect and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
