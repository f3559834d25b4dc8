"""Skill-emitting recurrent policy, phase-2 joint training, and BC baselines.

The policy reads F stacked observations (each frame extended with a 2-way
one-hot dataset id) through a stacked LSTM and regresses the latent skill.
Phase 2 builds the retrieval set once from the pretrained encoder, freezes the
supervision embeddings, then alternates policy updates with skill fine-tuning
on the same combined objective as pretraining.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Var, no_grad
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ExperimentConfig
from .data import (Normalizer, SubTrajectoryStream, TrajectoryDataset,
                   extract_frame_stack, fit_normalizer)
from .errors import ConfigError, UsageError
from .nn import LSTM, MLP, load_params, params_dict
from .optim import Adam
from .retrieval import (build_retrieval_dataset, build_retrieval_set,
                        embed_samples, retrieval_report)
from .seeding import stream
from .skill import (SkillModel, model_from_checkpoint, sample_pair_batch,
                    skill_loss)

log = logging.getLogger(__name__)

DATASET_ID_DIM = 2


class SkillPolicy:
    """Recurrent policy mapping (F-frame stack, dataset id) to a latent skill."""

    def __init__(self, obs_dim: int, latent_dim: int, cfg: ExperimentConfig,
                 seed: int, scope: str = "policy"):
        self.obs_dim = obs_dim
        self.latent_dim = latent_dim
        self.F = cfg.frame_stack
        self.lstm = LSTM("policy.lstm", obs_dim + DATASET_ID_DIM, cfg.lstm_hidden,
                         cfg.lstm_layers, stream(seed, scope, "lstm"))
        self.head = MLP("policy.head", cfg.lstm_hidden, cfg.mlp_hidden, latent_dim,
                        stream(seed, scope, "head"))

    def params(self):
        return self.lstm.params() + self.head.params()

    def state_dict(self):
        return params_dict(self.params())

    def load_state_dict(self, values):
        load_params(self.params(), values)

    def meta(self) -> dict:
        return {"obs_dim": self.obs_dim, "latent_dim": self.latent_dim,
                "frame_stack": self.F,
                "lstm_hidden": self.lstm.hidden, "lstm_layers": self.lstm.layers,
                "mlp_hidden": [w.data.shape[1] for w in self.head.weights[:-1]]}

    def forward(self, frames: np.ndarray, dataset_ids: np.ndarray) -> Var:
        """frames: (B, F, obs_dim); dataset_ids: (B,) ints in {0, 1}."""
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3 or frames.shape[1] != self.F or frames.shape[2] != self.obs_dim:
            raise UsageError(
                f"frames have shape {frames.shape}, expected (B, {self.F}, {self.obs_dim})")
        ids = np.asarray(dataset_ids, dtype=np.int64)
        if np.any((ids != 0) & (ids != 1)):
            raise UsageError("dataset ids must be 0 or 1")
        onehot = np.zeros((frames.shape[0], DATASET_ID_DIM))
        onehot[np.arange(frames.shape[0]), ids] = 1.0
        state = self.lstm.initial_state(frames.shape[0])
        out = None
        for t in range(self.F):
            x = Var(np.concatenate([frames[:, t], onehot], axis=1))
            out, state = self.lstm.step(x, state)
        return self.head(out)

    def query(self, frames: np.ndarray, dataset_id: int = 0) -> np.ndarray:
        """Single inference call; recurrent state starts fresh every query."""
        with no_grad():
            z = self.forward(frames[None, :, :], np.array([dataset_id]))
        return z.data[0].copy()


def policy_loss(z_hat: Var, z: np.ndarray, z_hat_r: Var | None,
                z_r: np.ndarray | None, gamma: float):
    """Mean-square target term plus gamma times mean-square retrieval term."""
    target_term = ad.vmean(ad.square(z_hat - Var(z)))
    if z_hat_r is not None:
        retrieval_term = ad.vmean(ad.square(z_hat_r - Var(z_r)))
        total = target_term + retrieval_term * gamma
    else:
        retrieval_term = None
        total = target_term
    parts = {"policy_target_loss": float(target_term.data),
             "policy_retrieval_loss":
                 float(retrieval_term.data) if retrieval_term is not None else 0.0}
    return total, parts


@dataclass
class PolicyEntry:
    frames: np.ndarray      # (F, obs_dim) normalized
    z: np.ndarray           # (d,) frozen mean embedding
    dataset_id: int


def entries_from_embeddings(dataset: TrajectoryDataset, emb_set, F: int,
                            dataset_id: int) -> list[PolicyEntry]:
    by_id = {t.id: t for t in dataset.trajectories}
    out = []
    for (tid, start), mean in zip(emb_set.sources, emb_set.means):
        out.append(PolicyEntry(extract_frame_stack(by_id[tid], start, F),
                               mean.copy(), dataset_id))
    return out


def _stack_entries(entries: list[PolicyEntry], idx: np.ndarray):
    frames = np.stack([entries[i].frames for i in idx])
    zs = np.stack([entries[i].z for i in idx])
    return frames, zs


# -- phase 2: policy learning + skill fine-tuning --------------------------------


@dataclass
class Phase2Result:
    checkpoint: Path
    checkpoints: list[Path]
    metrics_path: Path
    retrieval_report: dict | None


def save_phase2_checkpoint(path, policy: SkillPolicy, model: SkillModel,
                           normalizer: Normalizer, fingerprint: str) -> None:
    tensors = {}
    tensors.update(policy.state_dict())
    tensors.update(model.state_dict())
    meta = {"kind": "phase2", "policy": policy.meta(), "skill": model.meta()}
    save_checkpoint(path, tensors, fingerprint=fingerprint,
                    normalizer=normalizer.to_dict(), meta=meta)


def load_phase2_checkpoint(ckpt: Checkpoint, cfg_hint: ExperimentConfig | None = None):
    """Rebuild (policy, skill model, normalizer) from a phase-2 checkpoint."""
    from .skill import _config_from_meta
    meta = ckpt.meta
    if meta.get("kind") != "phase2":
        raise UsageError(f"checkpoint kind {meta.get('kind')!r} is not phase2")
    skill_meta = meta["skill"]
    pol_meta = meta["policy"]
    model_cfg = _config_from_meta(skill_meta)
    model = SkillModel(int(skill_meta["obs_dim"]), int(skill_meta["act_dim"]),
                       model_cfg, seed=0)
    pol_cfg = ExperimentConfig(
        frame_stack=int(pol_meta["frame_stack"]),
        lstm_hidden=int(pol_meta["lstm_hidden"]),
        lstm_layers=int(pol_meta["lstm_layers"]),
        mlp_hidden=tuple(pol_meta["mlp_hidden"]), tp_hidden=(1,))
    policy = SkillPolicy(int(pol_meta["obs_dim"]), int(pol_meta["latent_dim"]),
                         pol_cfg, seed=0)
    values = ckpt.as_float64()
    model.load_state_dict(values)
    policy.load_state_dict(values)
    return policy, model, Normalizer.from_dict(ckpt.normalizer)


def train_phase2(cfg: ExperimentConfig, prior_dataset: TrajectoryDataset,
                 target_dataset: TrajectoryDataset, skill_ckpt_path,
                 out_dir) -> Phase2Result:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg.seed
    rcfg = cfg.retrieval

    ckpt = load_checkpoint(skill_ckpt_path)
    expected = cfg.model_fingerprint(prior_dataset.obs_dim, prior_dataset.act_dim)
    if ckpt.fingerprint and ckpt.fingerprint != expected:
        raise ConfigError(
            f"skill checkpoint fingerprint {ckpt.fingerprint} does not match the "
            f"current config ({expected}); refusing to run")
    model, normalizer = model_from_checkpoint(ckpt)
    norm_prior = normalizer.apply(prior_dataset)
    norm_target = normalizer.apply(target_dataset)

    # supervision embeddings are frozen here, computed with the pretrained encoder
    target_set = embed_samples(model, norm_target, rcfg.num_target,
                               stream(seed, "phase2", "embed_target"))
    target_entries = entries_from_embeddings(norm_target, target_set,
                                             cfg.frame_stack, dataset_id=0)

    retrieval_entries: list[PolicyEntry] = []
    report = None
    if rcfg.mode != "none":
        prior_set = embed_samples(model, norm_prior, rcfg.num_prior,
                                  stream(seed, "phase2", "embed_prior"),
                                  enumerate_all=(rcfg.mode == "all"))
        rset = build_retrieval_set(prior_set, target_set, rcfg.mode, rcfg.fraction,
                                   rng=stream(seed, "phase2", "retrieval"))
        pairs = build_retrieval_dataset(norm_prior, rset, cfg.frame_stack)
        retrieval_entries = [PolicyEntry(frames, z, 1) for frames, z in pairs]
        report = retrieval_report(rset, len(prior_set), len(target_set))
        with open(out_dir / "retrieval_report.json", "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        if not retrieval_entries:
            log.warning("retrieval produced no entries (mode=%s, r=%s); "
                        "falling back to target-only policy loss",
                        rcfg.mode, rcfg.fraction)

    policy = SkillPolicy(prior_dataset.obs_dim, cfg.latent_dim, cfg, seed=seed,
                         scope="policy_init")
    opt_policy = Adam(policy.params(), lr=cfg.lr_policy)
    opt_vae = Adam(model.vae_params(), lr=cfg.lr_vae)
    opt_tp = Adam(model.tp_params(), lr=cfg.lr_tp)

    prior_stream = SubTrajectoryStream(norm_prior, cfg.horizon, cfg.frame_stack)
    target_stream = SubTrajectoryStream(norm_target, cfg.horizon, cfg.frame_stack)
    rng_policy = stream(seed, "phase2", "policy_batch")
    rng_skill = stream(seed, "phase2", "skill_batch")
    rng_noise = stream(seed, "phase2", "noise")

    fingerprint = expected
    ckpt_dir = out_dir / "checkpoints"
    metrics_path = out_dir / "metrics.jsonl"
    checkpoints: list[Path] = []
    B = cfg.batch_size

    with open(metrics_path, "w", encoding="utf-8") as metrics:
        for step_idx in range(1, cfg.phase2_steps + 1):
            idx_t = rng_policy.integers(len(target_entries), size=B)
            frames_t, z_t = _stack_entries(target_entries, idx_t)
            if retrieval_entries:
                idx_r = rng_policy.integers(len(retrieval_entries), size=B)
                frames_r, z_r = _stack_entries(retrieval_entries, idx_r)
                frames = np.concatenate([frames_t, frames_r])
                ids = np.concatenate([np.zeros(B, np.int64), np.ones(B, np.int64)])
                out = policy.forward(frames, ids)
                loss, parts = policy_loss(out[:B], z_t, out[B:], z_r, cfg.gamma)
            else:
                out = policy.forward(frames_t, np.zeros(B, np.int64))
                loss, parts = policy_loss(out, z_t, None, None, cfg.gamma)
            grads = ad.collect_gradients(loss, policy.params())
            opt_policy.step(grads)

            # skill fine-tuning alternates 50/50 between the two datasets
            ft_stream = prior_stream if step_idx % 2 == 1 else target_stream
            batch = sample_pair_batch(ft_stream, rng_skill, B, cfg.max_offset)
            noise = rng_noise.standard_normal((batch.size, cfg.latent_dim))
            ft_total, ft_parts = skill_loss(model, batch, cfg.beta, cfg.alpha, noise)
            ft_grads = ad.collect_gradients(ft_total, model.params())
            opt_vae.step(ft_grads)
            opt_tp.step(ft_grads)

            if step_idx % cfg.log_interval == 0:
                record = {"step": step_idx, **parts,
                          "skill_ft_total": ft_parts.total}
                metrics.write(json.dumps(record, sort_keys=True) + "\n")
            if step_idx % cfg.phase2_checkpoint_interval == 0:
                path = ckpt_dir / f"ckpt_{step_idx:07d}.skck"
                save_phase2_checkpoint(path, policy, model, normalizer, fingerprint)
                checkpoints.append(path)

    final_path = out_dir / "phase2_final.skck"
    save_phase2_checkpoint(final_path, policy, model, normalizer, fingerprint)
    return Phase2Result(checkpoint=final_path, checkpoints=checkpoints,
                        metrics_path=metrics_path, retrieval_report=report)


# -- BC baselines ------------------------------------------------------------------


class BCPolicy:
    """Recurrent behavioral cloning: F-frame history to raw action."""

    def __init__(self, obs_dim: int, act_dim: int, cfg: ExperimentConfig,
                 seed: int, scope: str = "bc"):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.F = cfg.frame_stack
        self.lstm = LSTM("bc.lstm", obs_dim, cfg.lstm_hidden, cfg.lstm_layers,
                         stream(seed, scope, "lstm"))
        self.head = MLP("bc.head", cfg.lstm_hidden, cfg.mlp_hidden, act_dim,
                        stream(seed, scope, "head"))

    def params(self):
        return self.lstm.params() + self.head.params()

    def state_dict(self):
        return params_dict(self.params())

    def load_state_dict(self, values):
        load_params(self.params(), values)

    def meta(self) -> dict:
        return {"kind": "bc", "obs_dim": self.obs_dim, "act_dim": self.act_dim,
                "frame_stack": self.F, "lstm_hidden": self.lstm.hidden,
                "lstm_layers": self.lstm.layers,
                "mlp_hidden": [w.data.shape[1] for w in self.head.weights[:-1]]}

    def forward(self, frames: np.ndarray) -> Var:
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3 or frames.shape[1] != self.F or frames.shape[2] != self.obs_dim:
            raise UsageError(
                f"frames have shape {frames.shape}, expected (B, {self.F}, {self.obs_dim})")
        state = self.lstm.initial_state(frames.shape[0])
        out = None
        for t in range(self.F):
            out, state = self.lstm.step(Var(frames[:, t]), state)
        return self.head(out)

    def query_action(self, frames: np.ndarray) -> np.ndarray:
        with no_grad():
            a = self.forward(frames[None, :, :])
        return a.data[0].copy()


def bc_loss(policy: BCPolicy, frames: np.ndarray, actions: np.ndarray):
    pred = policy.forward(frames)
    loss = ad.vmean(ad.square(pred - Var(actions)))
    return loss, float(loss.data)


def save_bc_checkpoint(path, policy: BCPolicy, normalizer: Normalizer,
                       fingerprint: str) -> None:
    save_checkpoint(path, policy.state_dict(), fingerprint=fingerprint,
                    normalizer=normalizer.to_dict(), meta=policy.meta())


def load_bc_checkpoint(ckpt: Checkpoint):
    meta = ckpt.meta
    if meta.get("kind") != "bc":
        raise UsageError(f"checkpoint kind {meta.get('kind')!r} is not bc")
    cfg = ExperimentConfig(frame_stack=int(meta["frame_stack"]),
                           lstm_hidden=int(meta["lstm_hidden"]),
                           lstm_layers=int(meta["lstm_layers"]),
                           mlp_hidden=tuple(meta["mlp_hidden"]), tp_hidden=(1,))
    policy = BCPolicy(int(meta["obs_dim"]), int(meta["act_dim"]), cfg, seed=0)
    policy.load_state_dict(ckpt.as_float64())
    return policy, Normalizer.from_dict(ckpt.normalizer)


@dataclass
class BCResult:
    checkpoint: Path
    checkpoints: list[Path]
    metrics_path: Path


def _bc_phase(policy, stream_, steps, batch_size, opt, rng, metrics, log_interval,
              tag, on_checkpoint, checkpoint_interval):
    for step_idx in range(1, steps + 1):
        samples = [stream_.sample(rng) for _ in range(batch_size)]
        frames = np.stack([s.frame_stack for s in samples])
        actions = np.stack([s.window_actions[0] for s in samples])
        loss, value = bc_loss(policy, frames, actions)
        grads = ad.collect_gradients(loss, policy.params())
        opt.step(grads)
        if step_idx % log_interval == 0:
            metrics.write(json.dumps({"step": step_idx, "phase": tag,
                                      "bc_loss": value}, sort_keys=True) + "\n")
        if checkpoint_interval and step_idx % checkpoint_interval == 0:
            on_checkpoint(step_idx)


def bc_train(cfg: ExperimentConfig, target_dataset: TrajectoryDataset,
             prior_dataset: TrajectoryDataset | None, out_dir) -> BCResult:
    """BC-RNN on the target set; with a prior set given, pretrain there first."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg.seed
    fit_on = prior_dataset if prior_dataset is not None else target_dataset
    normalizer = fit_normalizer(fit_on)
    policy = BCPolicy(target_dataset.obs_dim, target_dataset.act_dim, cfg,
                      seed=seed, scope="bc_init")
    opt = Adam(policy.params(), lr=cfg.lr_policy)
    fingerprint = cfg.model_fingerprint(target_dataset.obs_dim, target_dataset.act_dim)
    ckpt_dir = out_dir / "checkpoints"
    checkpoints: list[Path] = []
    metrics_path = out_dir / "metrics.jsonl"

    with open(metrics_path, "w", encoding="utf-8") as metrics:
        if prior_dataset is not None:
            prior_stream = SubTrajectoryStream(normalizer.apply(prior_dataset), 1,
                                               cfg.frame_stack)
            _bc_phase(policy, prior_stream, cfg.bc_pretrain_steps, cfg.batch_size,
                      opt, stream(seed, "bc", "prior_batch"), metrics,
                      cfg.log_interval, "pretrain", lambda s: None, 0)
            save_bc_checkpoint(out_dir / "bc_phase1.skck", policy, normalizer,
                               fingerprint)
        target_stream = SubTrajectoryStream(normalizer.apply(target_dataset), 1,
                                            cfg.frame_stack)

        def on_ckpt(step_idx):
            path = ckpt_dir / f"ckpt_{step_idx:07d}.skck"
            save_bc_checkpoint(path, policy, normalizer, fingerprint)
            checkpoints.append(path)

        _bc_phase(policy, target_stream, cfg.bc_steps, cfg.batch_size, opt,
                  stream(seed, "bc", "target_batch"), metrics, cfg.log_interval,
                  "finetune", on_ckpt, cfg.phase2_checkpoint_interval)

    final_path = out_dir / "bc_final.skck"
    save_bc_checkpoint(final_path, policy, normalizer, fingerprint)
    return BCResult(checkpoint=final_path, checkpoints=checkpoints,
                    metrics_path=metrics_path)
