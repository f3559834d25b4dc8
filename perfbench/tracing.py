"""Outside-in tracing: wrap the public functions of each skillbc layer.

Nothing under `src/` knows about this module. `Tracer.install` replaces each
hooked function (or method) with a timing wrapper, in its defining module and
in every `skillbc.*` module that bound the same object with `from ... import`,
and `uninstall` puts the originals back.

Two kinds of hook:

* span: one record per call with name, start, end, parent span and the
  current phase ("setup" or "stage"). Used for calls that take milliseconds.
* aggregate: a count and a total per (phase, name, regime). Used for calls
  that take microseconds (env.step, LSTM.step, decode_step_numpy), where one
  record per call would cost more than the call.

A span's self time is its duration minus the spans and outermost aggregate
calls nested directly inside it. A hooked name that no longer exists is
reported as missing; the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SPAN = "span"
AGG = "aggregate"


@dataclass(frozen=True)
class Hook:
    module: str          # defining module, e.g. "skillbc.retrieval"
    attr: str            # "fn" or "Class.method"
    name: str            # span / aggregate name, e.g. "retrieval.distance"
    kind: str = SPAN


def _grad_mode() -> str:
    ad = sys.modules.get("skillbc.autodiff")
    enabled = getattr(ad, "grad_enabled", None)
    return "train" if enabled is None or enabled() else "infer"


def lstm_regime(args, kwargs) -> str:
    """train | infer_batch | infer_b1, from grad mode and the input batch size."""
    if _grad_mode() == "train":
        return "train"
    x = args[1] if len(args) > 1 else kwargs.get("x")
    shape = getattr(x, "shape", ())
    return "infer_b1" if shape and shape[0] == 1 else "infer_batch"


def grad_regime(args, kwargs) -> str:
    return _grad_mode()


HOOKS = (
    # stage entry points (structure of the span tree)
    Hook("skillbc.skill", "pretrain", "skill.pretrain"),
    Hook("skillbc.policy", "train_phase2", "policy.train_phase2"),
    Hook("skillbc.evaluation", "evaluate_checkpoints", "evaluation.evaluate_checkpoints"),
    # training path
    Hook("skillbc.skill", "skill_loss", "skill.loss_forward"),
    Hook("skillbc.autodiff", "collect_gradients", "autodiff.backward"),
    Hook("skillbc.optim", "adam_step", "optim.adam"),
    Hook("skillbc.skill", "sample_pair_batch", "data.pair_batch"),
    Hook("skillbc.skill", "heldout_metrics", "skill.heldout"),
    Hook("skillbc.checkpoint", "save_checkpoint", "checkpoint.save"),
    Hook("skillbc.checkpoint", "load_checkpoint", "checkpoint.load"),
    Hook("skillbc.policy", "SkillPolicy.forward", "policy.forward", AGG),
    Hook("skillbc.nn", "LSTM.step", "nn.lstm_step", AGG),
    # retrieval
    Hook("skillbc.retrieval", "embed_samples", "retrieval.embed"),
    Hook("skillbc.retrieval", "min_target_distances", "retrieval.distance"),
    Hook("skillbc.retrieval", "build_retrieval_set", "retrieval.rank"),
    # simulator and data
    Hook("skillbc.env", "scripted_play", "env.play"),
    Hook("skillbc.env", "scripted_demo", "env.demo"),
    Hook("skillbc.env", "run_episode", "env.episode"),
    Hook("skillbc.env", "step", "env.step", AGG),
    Hook("skillbc.skill", "SkillModel.decode_step_numpy", "skill.decode_step", AGG),
    Hook("skillbc.policy", "SkillPolicy.query", "policy.query", AGG),
    Hook("skillbc.policy", "BCPolicy.query_action", "policy.bc_query", AGG),
    Hook("skillbc.data", "write_dataset", "data.write_dataset"),
    Hook("skillbc.data", "load_dataset", "data.load_dataset"),
)

REGIMES = {"nn.lstm_step": lstm_regime, "policy.forward": grad_regime}


def count_graph_nodes(root) -> int:
    """Var nodes reachable from `root` through their parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in getattr(node, "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.phase = "setup"
        self.spans: list[list] = []       # [id, parent, name, phase, start, end, agg_child]
        self.aggregates: dict[tuple, list] = {}   # (phase, name) -> [count, total_s]
        self.extras: dict[tuple, float] = {}      # (phase, counter) -> total
        self.errors: dict[tuple, int] = {}        # (phase, name) -> raised calls
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._agg_depth = 0
        self._patched: list[tuple] = []   # (owner, attr, original)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for hook in self.hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            owner, attr = module, hook.attr
            if "." in attr:
                cls_name, attr = attr.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            wrapper = self._wrap(hook, original)
            self._patch(owner, attr, original, wrapper)
            if owner is module:
                # names bound elsewhere by `from ... import`
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "") or ""
                    if other is module or not name.startswith("skillbc"):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, hook: Hook, fn):
        if hook.kind == AGG:
            return self._wrap_aggregate(hook, fn)
        counter = COUNTERS.get(hook.name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else None
            record = [len(tracer.spans), parent, hook.name, tracer.phase, clock(), None, 0.0]
            tracer.spans.append(record)
            tracer._stack.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                key = (tracer.phase, hook.name)
                tracer.errors[key] = tracer.errors.get(key, 0) + 1
                raise
            finally:
                record[5] = clock()
                tracer._stack.pop()
            if counter:
                for name, value in counter(args, kwargs, result).items():
                    key = (tracer.phase, name)
                    tracer.extras[key] = tracer.extras.get(key, 0.0) + value
            return result

        return span_wrapper

    def _wrap_aggregate(self, hook: Hook, fn):
        regime = REGIMES.get(hook.name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def agg_wrapper(*args, **kwargs):
            name = f"{hook.name}.{regime(args, kwargs)}" if regime else hook.name
            tracer._agg_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._agg_depth -= 1
                entry = tracer.aggregates.setdefault((tracer.phase, name), [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                if tracer._agg_depth == 0 and tracer._stack:
                    tracer._stack[-1][6] += elapsed

        return agg_wrapper

    # -- queries -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        return {s[0]: (s[5] - s[4]) - child[s[0]] - s[6]
                for s in self.spans if s[5] is not None}

    def durations(self, name: str, phase: str = "stage") -> list[float]:
        return [s[5] - s[4] for s in self.spans
                if s[2] == name and s[3] == phase and s[5] is not None]

    def self_total(self, name: str, phase: str = "stage") -> float:
        selfs = self.self_times()
        return sum(selfs[s[0]] for s in self.spans
                   if s[2] == name and s[3] == phase and s[0] in selfs)

    def aggregate(self, name: str, phase: str = "stage") -> tuple[int, float]:
        count, total = self.aggregates.get((phase, name), (0, 0.0))
        return count, total

    def extra(self, counter: str, phase: str = "stage") -> float:
        return self.extras.get((phase, counter), 0.0)

    def error_count(self, name: str, phase: str = "stage") -> int:
        return self.errors.get((phase, name), 0)

    def dump(self, path) -> None:
        """Write spans (with self time), aggregates and counters as JSON."""
        selfs = self.self_times()
        out = {
            "missing_hooks": self.missing,
            "spans": [{"id": s[0], "parent": s[1], "name": s[2], "phase": s[3],
                       "start": s[4], "end": s[5], "self": selfs.get(s[0])}
                      for s in self.spans],
            "aggregates": [{"phase": p, "name": n, "count": c, "total_s": t}
                           for (p, n), (c, t) in sorted(self.aggregates.items())],
            "counters": [{"phase": p, "name": n, "value": v}
                         for (p, n), v in sorted(self.extras.items())],
            "errors": [{"phase": p, "name": n, "count": c}
                       for (p, n), c in sorted(self.errors.items())],
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(out), encoding="utf-8")
        os.replace(tmp, path)


def median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


# -- counters taken after a hooked call returns, outside its span ---------------


def _graph_nodes(args, kwargs, result) -> dict:
    loss = args[0] if args else kwargs.get("loss")
    return {"autodiff.nodes": count_graph_nodes(loss), "autodiff.backward_calls": 1}


def _bytes_written(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs.get("path")
    try:
        return {"checkpoint.bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {}


def _windows(args, kwargs, result) -> dict:
    return {"retrieval.windows": len(result)}


def _pairs(args, kwargs, result) -> dict:
    return {"retrieval.pairs": len(args[0]) * len(args[1])}


COUNTERS = {
    "autodiff.backward": _graph_nodes,
    "checkpoint.save": _bytes_written,
    "retrieval.embed": _windows,
    "retrieval.distance": _pairs,
}
