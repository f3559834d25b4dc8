"""The three benchmark workloads: set-up, one timed stage unit, output checks.

Each workload drives the pipeline through the public calls the CLI makes, at
the `desk` preset. One *unit* is one complete stage call with fixed inputs, so
every unit of a run must produce byte-identical outputs; the runner repeats
units to fill its time budget and reports medians.

* pretrain: `skill.pretrain` on a generated 200x1000 play set.
* phase2:   `policy.train_phase2` with l2 retrieval at desk counts, from a
            skill checkpoint built in set-up.
* rollout:  gen-data style generation (play, demos one at a time, dataset
            writes) plus `evaluation.evaluate_checkpoints` of a phase-2 and a
            BC checkpoint built in set-up.

Functions are looked up on their modules at call time (`skill.pretrain`, not
a name imported once), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from skillbc import checkpoint, config, data, env, errors, evaluation, policy
from skillbc import retrieval, seeding, skill

import reference

TASK = "setting_up"


@dataclass(frozen=True)
class Sizes:
    play_trajectories: int
    play_steps: int
    demos_per_task: int
    pretrain_steps: int          # per pretrain unit
    phase2_steps: int            # per phase2 unit
    num_prior: int
    num_target: int
    eval_episodes: int           # per checkpoint, per rollout unit
    setup_pretrain_steps: int    # skill checkpoint for phase2
    ckpt_play_trajectories: int  # rollout set-up: barely trained checkpoints
    ckpt_play_steps: int
    ckpt_demos: int
    ckpt_steps: int
    ckpt_num_prior: int
    ckpt_num_target: int
    setup_repeats: int
    check_rows: int              # d_min rows compared against the reference


DESK = Sizes(play_trajectories=200, play_steps=1000, demos_per_task=30,
             pretrain_steps=250, phase2_steps=200, num_prior=20000, num_target=2500,
             eval_episodes=6, setup_pretrain_steps=20,
             ckpt_play_trajectories=20, ckpt_play_steps=200, ckpt_demos=6,
             ckpt_steps=5, ckpt_num_prior=500, ckpt_num_target=100,
             setup_repeats=3, check_rows=64)

TINY = Sizes(play_trajectories=4, play_steps=150, demos_per_task=3,
             pretrain_steps=12, phase2_steps=4, num_prior=300, num_target=60,
             eval_episodes=1, setup_pretrain_steps=4,
             ckpt_play_trajectories=3, ckpt_play_steps=120, ckpt_demos=3,
             ckpt_steps=2, ckpt_num_prior=100, ckpt_num_target=30,
             setup_repeats=2, check_rows=8)

SIZES = {"desk": DESK, "tiny": TINY}


class Ledger:
    """Attempted and failed operations of the timed stages.

    A raised exception fails its operation. A failed output check fails the
    operation it checks and marks the run incorrect. Exceptions listed as
    `expected` (a demo GenerationError, a known defect) fail the operation
    but leave the outputs correct.
    """

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.reasons: Counter = Counter()
        self.incorrect: list[str] = []

    def attempt(self, label: str, fn, *args, expected=(), **kwargs):
        """Run one operation; returns (operation id, result or None)."""
        op = self.attempted
        self.attempted += 1
        try:
            return op, fn(*args, **kwargs)
        except expected as e:
            self.fail(op, f"{label}: {type(e).__name__}", incorrect=False)
        except Exception as e:  # counted and reported; the run goes on
            self.fail(op, f"{label}: {type(e).__name__}: {e}")
        return op, None

    def check(self, op: int, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(op, message)
        return bool(ok)

    def fail(self, op: int, reason: str, incorrect: bool = True) -> None:
        self.failed_ops.add(op)
        self.reasons[reason] += 1
        if incorrect:
            self.incorrect.append(reason)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def file_digest(paths, extra: bytes = b"") -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    h.update(extra)
    return h.hexdigest()[:16]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def make_cfg(sizes: Sizes, seed: int, **overrides) -> config.ExperimentConfig:
    kwargs = dict(seed=seed, task=TASK, play_trajectories=sizes.play_trajectories,
                  play_steps=sizes.play_steps, demos_per_task=sizes.demos_per_task,
                  pretrain_steps=sizes.pretrain_steps, phase2_steps=sizes.phase2_steps,
                  eval_episodes=sizes.eval_episodes,
                  retrieval=dict(num_prior=sizes.num_prior, num_target=sizes.num_target))
    kwargs.update(overrides)
    return config.make_config("desk", **kwargs)


def generate_play(cfg, ledger: Ledger) -> list:
    """(operation, trajectory) per play trajectory, from the `gen-data` streams."""
    out = []
    for i in range(cfg.play_trajectories):
        rng = seeding.stream(cfg.seed, "gen", "play", i)
        op, traj = ledger.attempt("play", env.scripted_play, rng, cfg.play_steps, traj_id=i)
        if traj is not None:
            out.append((op, traj))
    return out


def generate_demos(cfg, task_name: str, ledger: Ledger) -> list:
    """(operation, trajectory) per successful demo; never retried or re-seeded."""
    task = env.get_task(task_name)
    out = []
    for i in range(cfg.demos_per_task):
        rng = seeding.stream(cfg.seed, "gen", "demo", task_name, i)
        op, traj = ledger.attempt(f"demo {task_name}", env.scripted_demo, task, rng,
                                  traj_id=i, expected=(errors.GenerationError,))
        if traj is not None:
            out.append((op, traj))
    return out


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, sizes: Sizes, seed: int, root: Path):
        self.sizes = sizes
        self.seed = seed
        self.root = Path(root)
        self.ledger = Ledger()
        self.digests: list[str] = []
        self.cfg = make_cfg(sizes, seed)
        self._rates: dict[str, float] = {}
        self._discard: list[Path] = []

    def setup_dataset(self, generate, cfg, role: str, path: Path, *args):
        """Generate, write and read back one set-up dataset.

        Failed demos are left out; any other failure stops the run.
        """
        ledger = Ledger()
        trajs = [t for _, t in generate(cfg, *args, ledger)]
        if ledger.incorrect:
            raise RuntimeError(f"set-up failed: {ledger.incorrect[0]}")
        data.write_dataset(data.TrajectoryDataset(trajs, role, env.OBS_DIM, env.ACT_DIM),
                           path)
        self._discard.append(path)
        return data.load_dataset(path)

    def discard_files(self) -> None:
        """Delete set-up datasets and unit outputs once nothing reads them.

        Called outside every timed interval, soon after the files were
        written: on a file system that discards blocks on delete, removing a
        file after write-back costs milliseconds per file.
        """
        for path in self._discard:
            shutil.rmtree(path, ignore_errors=True)
        self._discard = []

    def unit_dir(self, k: int) -> Path:
        path = fresh_dir(self.root / f"unit{k}")
        self._discard.append(path)
        return path

    def setup(self, k: int) -> None:
        raise NotImplementedError

    def unit(self, k: int):
        """One timed stage unit; returns (work items, outputs for check)."""
        raise NotImplementedError

    def check(self, k: int, outputs) -> None:
        raise NotImplementedError

    def stage_rates(self) -> dict[str, float]:
        """Rates of the user-facing stages inside the last unit."""
        return dict(self._rates)

    def record_digest(self, op: int, digest: str) -> None:
        if self.digests:
            self.ledger.check(op, digest == self.digests[0],
                              f"{self.name}: outputs differ between units "
                              f"({digest} != {self.digests[0]})")
        self.digests.append(digest)


class Pretrain(Workload):
    name = "pretrain"
    work_unit = "optimizer steps"

    def setup(self, k):
        base = fresh_dir(self.root / f"setup{k}")
        self.prior = self.setup_dataset(generate_play, self.cfg, "prior", base / "prior")

    def unit(self, k):
        out = self.unit_dir(k)
        start = perf_counter()
        op, result = self.ledger.attempt("pretrain", skill.pretrain, self.cfg, self.prior, out)
        self._rates = {"pretrain_steps_per_s": self.cfg.pretrain_steps / (perf_counter() - start)}
        return self.cfg.pretrain_steps, (op, out, result)

    def check(self, k, outputs):
        op, out, result = outputs
        if result is None:
            return
        ok = self.ledger.check
        summary = result.summary
        ok(op, summary.get("aborted_at") is None,
           f"pretrain aborted at step {summary.get('aborted_at')}: {summary.get('error')}")
        initial, final = summary.get("initial"), summary.get("final")
        ok(op, bool(initial and final) and final["recon"] < initial["recon"],
           f"held-out recon did not fall: {initial} -> {final}")
        ckpt = checkpoint.load_checkpoint(result.checkpoint)
        model, _ = skill.model_from_checkpoint(ckpt)
        expected = self.cfg.model_fingerprint(self.prior.obs_dim, self.prior.act_dim)
        ok(op, ckpt.fingerprint == expected and model.obs_dim == self.prior.obs_dim,
           f"final checkpoint fingerprint {ckpt.fingerprint} != {expected}")
        self.record_digest(op, file_digest([result.checkpoint, result.metrics_path,
                                            out / "summary.json"]))


class Phase2(Workload):
    name = "phase2"
    work_unit = "phase-2 steps"

    def setup(self, k):
        base = fresh_dir(self.root / f"setup{k}")
        self.prior = self.setup_dataset(generate_play, self.cfg, "prior", base / "prior")
        self.target = self.setup_dataset(generate_demos, self.cfg, "target", base / "target",
                                         TASK)
        setup_cfg = make_cfg(self.sizes, self.seed,
                             pretrain_steps=self.sizes.setup_pretrain_steps)
        self.skill_ckpt = skill.pretrain(setup_cfg, self.prior, base / "skill").checkpoint

    def unit(self, k):
        out = self.unit_dir(k)
        op, result = self.ledger.attempt("train_phase2", policy.train_phase2, self.cfg,
                                         self.prior, self.target, self.skill_ckpt, out)
        return self.cfg.phase2_steps, (op, out, result)

    def check(self, k, outputs):
        op, out, result = outputs
        if result is None:
            return
        cfg = self.cfg
        expected_ckpts = cfg.phase2_steps // cfg.phase2_checkpoint_interval
        self.ledger.check(op, len(result.checkpoints) == expected_ckpts,
                          f"{len(result.checkpoints)} phase-2 checkpoints, "
                          f"expected {expected_ckpts}")
        report_path = out / "retrieval_report.json"
        if k == 0:
            self.check_retrieval(op, json.loads(report_path.read_text(encoding="utf-8")))
        self.record_digest(op, file_digest([result.checkpoint, report_path,
                                            result.metrics_path]))

    def check_retrieval(self, op, report) -> None:
        """Selection size, order and distances against a brute-force reference.

        The embeddings are recomputed with the public `embed_samples` from the
        same named streams `train_phase2` uses.
        """
        ok = self.ledger.check
        rcfg = self.cfg.retrieval
        model, normalizer = skill.model_from_checkpoint(
            checkpoint.load_checkpoint(self.skill_ckpt))
        prior_set = retrieval.embed_samples(
            model, normalizer.apply(self.prior), rcfg.num_prior,
            seeding.stream(self.seed, "phase2", "embed_prior"))
        target_set = retrieval.embed_samples(
            model, normalizer.apply(self.target), rcfg.num_target,
            seeding.stream(self.seed, "phase2", "embed_target"))
        n_prior = len(prior_set)
        want = math.floor(Fraction(str(rcfg.fraction)) * n_prior)
        ok(op, report["num_prior"] == n_prior,
           f"report num_prior {report['num_prior']} != {n_prior} embedded windows")
        ok(op, report["num_selected"] == want,
           f"num_selected {report['num_selected']} != floor(r*N) = {want}")
        index = {tuple(s): i for i, s in enumerate(prior_set.sources)}
        picked = [index.get(tuple(s)) for s in report["selected_sources"]]
        if not ok(op, None not in picked, "selected source not among the embedded windows"):
            return
        ref_sel = reference.l2_min_distances(prior_set.means[picked], target_set.means)
        scale = max(1.0, float(ref_sel.max())) if len(ref_sel) else 1.0
        ok(op, bool(np.all(np.diff(ref_sel) >= -1e-12 * scale)),
           "selected distances are not ascending")
        quantiles = report.get("selected_distance_quantiles") or {}
        ok(op, all(math.isclose(v, float(np.percentile(ref_sel, float(q))),
                                rel_tol=1e-9, abs_tol=1e-12)
                   for q, v in quantiles.items()),
           "selected distance quantiles differ from the reference")
        rows = seeding.stream(self.seed, "bench", "rows").choice(
            n_prior, size=min(self.sizes.check_rows, n_prior), replace=False)
        ref = reference.l2_min_distances(prior_set.means[rows], target_set.means)
        if len(ref_sel):
            chosen, threshold = set(picked), float(ref_sel.max())
            ok(op, all(d <= threshold if i in chosen else d >= threshold
                       for i, d in zip(rows.tolist(), ref)),
               "sampled rows contradict the top-floor(r*N) selection")
        kernel = getattr(retrieval, "min_target_distances", None)
        if kernel is None:
            print("check: retrieval.min_target_distances missing; row check skipped")
            return
        sub = retrieval.EmbeddingSet(prior_set.means[rows], prior_set.log_stds[rows],
                                     [prior_set.sources[i] for i in rows], "prior")
        got = kernel(sub, target_set, metric="l2")
        ok(op, bool(np.allclose(got, ref, rtol=1e-10, atol=1e-12)),
           f"d_min rows differ from the reference by {float(np.max(np.abs(got - ref)))}")


class Rollout(Workload):
    name = "rollout"
    work_unit = "env transitions"

    def setup(self, k):
        base = fresh_dir(self.root / f"setup{k}")
        s = self.sizes
        ckpt_cfg = make_cfg(
            s, self.seed, play_trajectories=s.ckpt_play_trajectories,
            play_steps=s.ckpt_play_steps, demos_per_task=s.ckpt_demos,
            pretrain_steps=s.ckpt_steps, phase2_steps=s.ckpt_steps,
            bc_steps=s.ckpt_steps, phase2_checkpoint_interval=s.ckpt_steps,
            retrieval=dict(num_prior=s.ckpt_num_prior, num_target=s.ckpt_num_target))
        prior = self.setup_dataset(generate_play, ckpt_cfg, "prior", base / "prior")
        target = self.setup_dataset(generate_demos, ckpt_cfg, "target", base / "target", TASK)
        skill_ckpt = skill.pretrain(ckpt_cfg, prior, base / "skill").checkpoint
        self.phase2_ckpt = policy.train_phase2(ckpt_cfg, prior, target, skill_ckpt,
                                               base / "phase2").checkpoint
        self.bc_ckpt = policy.bc_train(ckpt_cfg, target, None, base / "bc").checkpoint

    def unit(self, k):
        out = self.unit_dir(k)
        cfg, ledger = self.cfg, self.ledger
        writes = []

        def write(kept, role, name):
            if kept:
                ds = data.TrajectoryDataset([t for _, t in kept], role,
                                            env.OBS_DIM, env.ACT_DIM)
                writes.append(ledger.attempt(f"write {name}", data.write_dataset, ds,
                                             out / name)[0])

        t0 = perf_counter()
        play = generate_play(cfg, ledger)
        write(play, "prior", "prior")
        demos = {}
        for task_name in config.TASK_NAMES:
            demos[task_name] = generate_demos(cfg, task_name, ledger)
            write(demos[task_name], "target", f"target_{task_name}")
        t1 = perf_counter()
        reports = [ledger.attempt("eval", evaluation.evaluate_checkpoints, [path], TASK,
                                  cfg.eval_episodes, self.seed)
                   for path in (self.phase2_ckpt, self.bc_ckpt)]
        t2 = perf_counter()
        gen_items = (sum(t.length for _, t in play)
                     + sum(t.length for d in demos.values() for _, t in d))
        # exact while no episode succeeds early; the traced run counts env.step
        eval_items = 2 * cfg.eval_episodes * env.get_task(TASK).budget
        self.eval_steps = eval_items
        self._rates = {"gen_transitions_per_s": gen_items / (t1 - t0),
                       "eval_env_steps_per_s": eval_items / (t2 - t1)}
        return gen_items + eval_items, (out, play, demos, writes, reports)

    def check(self, k, outputs):
        out, play, demos, writes, reports = outputs
        ok = self.ledger.check
        cfg = self.cfg
        for op, traj in play:
            ok(op, traj.length == cfg.play_steps,
               f"play trajectory {traj.id} has {traj.length} steps, not {cfg.play_steps}")
        if k == 0:
            for task_name, kept in demos.items():
                for op, traj in kept:
                    ok(op, self.replay_ends_at_success(task_name, traj),
                       f"{task_name} demo {traj.id} does not end at task success")
        for op, report in reports:
            if report is None:
                continue
            ok(op, report["episodes_per_checkpoint"] == cfg.eval_episodes
               and len(report["rates"]) == 1
               and all(0.0 <= r <= 1.0 for r in report["rates"]),
               f"bad evaluation report: {report}")
        files = sorted(p for p in out.rglob("*") if p.is_file())
        report_blob = json.dumps([r for _, r in reports], sort_keys=True).encode()
        self.record_digest(writes[0] if writes else 0, file_digest(files, report_blob))

    def replay_ends_at_success(self, task_name: str, traj) -> bool:
        """Re-step the pure simulator from the demo's reset; success only at the end."""
        task = env.get_task(task_name)
        state, obs = env.reset(task, seeding.stream(self.seed, "gen", "demo", task_name,
                                                    traj.id))
        if not np.array_equal(obs, traj.observations[0]):
            return False
        success = False
        for action in traj.actions:
            if success:
                return False
            state, obs, success = env.step(task, state, action)
        return bool(success)


WORKLOADS = {w.name: w for w in (Pretrain, Phase2, Rollout)}
