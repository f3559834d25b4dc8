"""Tiny-size self-check: every workload, untraced and traced, in a few seconds.

    python3 perfbench/selfcheck.py

Runs `run.py --size tiny` in-process for each workload with `--trace 0` and
`--trace 1`, and checks that the last output line is a result whose metrics
are exactly those `BENCHMARK.json` declares, with the same units, and that
the outputs were correct. Exits 1 on the first mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_spec() -> list[str]:
    problems = []
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if {m["name"]: m["unit"] for m in SPEC[key]} != units:
            problems.append(f"{key} in BENCHMARK.json differs from run.py")
    names = [w["name"] for w in SPEC["workloads"]]
    if sorted(names) != ["phase2", "pretrain", "rollout"]:
        problems.append(f"unexpected workloads {names}")
    return problems


def run_one(workload: str, trace: int) -> list[str]:
    argv = ["--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    lines = buf.getvalue().strip().splitlines()
    if code != 0 or not lines:
        return [f"{workload} trace={trace}: exit code {code}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("attempted", 0) < 1:
        problems.append(f"{workload} trace={trace}: incorrect result {lines[-6:]}")
    want = run.PER_LAYER if trace else run.END_TO_END
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{workload} trace={trace}: metrics differ from the spec")
    return problems


def main() -> int:
    problems = check_spec()
    for workload in ("pretrain", "phase2", "rollout"):
        for trace in (0, 1):
            found = run_one(workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
