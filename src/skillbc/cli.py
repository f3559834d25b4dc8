"""Command-line front end.

Subcommands: gen-data, skill-pretrain, retrieve, policy-train, eval, ablate,
bc-train. Flags override config-file values; the effective config is echoed
into every output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .checkpoint import load_checkpoint
from .config import (ExperimentConfig, load_config, make_config, save_config,
                     RETRIEVAL_MODES)
from .errors import (ConfigError, FormatError, GenerationError, IntegrityError,
                     TrainingError, UsageError)
from .evaluation import evaluate_checkpoints, write_report
from .policy import train_phase2
from .retrieval import build_retrieval_set, embed_samples, retrieval_report
from .seeding import stream
from .skill import model_from_checkpoint, pretrain


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", type=Path, help="JSON config file")
    p.add_argument("--preset", choices=["desk", "paper"],
                   help="named preset (ignored when --config is given)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--task", choices=["setting_up", "cleaning_up"])
    p.add_argument("--prior", type=Path, help="prior dataset directory")
    p.add_argument("--target", type=Path, help="target dataset directory")
    # ablation-style overrides
    p.add_argument("--no-tp", action="store_true", help="drop the offset objective")
    p.add_argument("--retrieval-mode", choices=list(RETRIEVAL_MODES))
    p.add_argument("--retrieval-frac", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--prior-frac", type=float)
    # schedule overrides (mostly for quick runs)
    for name in ("pretrain-steps", "phase2-steps", "bc-steps", "bc-pretrain-steps",
                 "eval-episodes", "play-trajectories", "play-steps", "demos"):
        p.add_argument(f"--{name}", type=int)


def build_config(args) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = make_config(args.preset or "desk")
    updates = {}
    simple = {"seed": "seed", "task": "task",
              "pretrain_steps": "pretrain_steps", "phase2_steps": "phase2_steps",
              "bc_steps": "bc_steps", "bc_pretrain_steps": "bc_pretrain_steps",
              "eval_episodes": "eval_episodes",
              "play_trajectories": "play_trajectories", "play_steps": "play_steps",
              "demos": "demos_per_task", "gamma": "gamma",
              "prior_frac": "prior_fraction"}
    for arg_name, field in simple.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            updates[field] = value
    if getattr(args, "prior", None):
        updates["prior_path"] = str(args.prior)
    if getattr(args, "target", None):
        updates["target_path"] = str(args.target)
    if getattr(args, "no_tp", False):
        updates["alpha"] = 0.0
    retrieval = cfg.retrieval
    if getattr(args, "retrieval_mode", None):
        retrieval = replace(retrieval, mode=args.retrieval_mode)
    if getattr(args, "retrieval_frac", None) is not None:
        retrieval = replace(retrieval, fraction=args.retrieval_frac)
    if retrieval is not cfg.retrieval:
        updates["retrieval"] = retrieval
    return replace(cfg, **updates).validate() if updates else cfg.validate()


def _echo_config(cfg: ExperimentConfig, out: Path):
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.json")


def cmd_gen_data(args) -> int:
    cfg = build_config(args)
    _echo_config(cfg, args.out)
    report = pipeline.generate_datasets(cfg, args.out, force=args.force)
    print(f"wrote prior ({report['prior']['transitions']} transitions) and "
          f"{len(report) - 3} target sets under {args.out}")
    return 0


def cmd_skill_pretrain(args) -> int:
    cfg = build_config(args)
    _echo_config(cfg, args.out)
    prior = pipeline.load_prior(cfg)
    result = pretrain(cfg, prior, args.out)
    status = ("aborted at step " + str(result.summary["aborted_at"])
              if result.summary["aborted_at"] else "done")
    print(f"pretrain {status}; checkpoint: {result.checkpoint}")
    return 0 if result.summary["aborted_at"] is None else 1


def cmd_retrieve(args) -> int:
    cfg = build_config(args)
    _echo_config(cfg, args.out)
    ckpt = load_checkpoint(args.skill_ckpt)
    prior = pipeline.load_prior(cfg)
    target = pipeline.load_target(cfg)
    expected = cfg.model_fingerprint(prior.obs_dim, prior.act_dim)
    if ckpt.fingerprint and ckpt.fingerprint != expected:
        raise ConfigError(f"checkpoint fingerprint {ckpt.fingerprint} does not match "
                          f"config ({expected}); refusing to run")
    model, normalizer = model_from_checkpoint(ckpt)
    norm_prior, norm_target = normalizer.apply(prior), normalizer.apply(target)
    rcfg = cfg.retrieval
    seed = cfg.seed
    prior_set = embed_samples(model, norm_prior, rcfg.num_prior,
                              stream(seed, "phase2", "embed_prior"),
                              enumerate_all=(rcfg.mode == "all"))
    target_set = embed_samples(model, norm_target, rcfg.num_target,
                               stream(seed, "phase2", "embed_target"))
    rset = build_retrieval_set(prior_set, target_set, rcfg.mode, rcfg.fraction,
                               rng=stream(seed, "phase2", "retrieval"))
    report = retrieval_report(rset, len(prior_set), len(target_set))
    write_report(report, args.out / "retrieval_report.json")
    print(f"retrieved {report['num_selected']} of {report['num_prior']} "
          f"prior windows (mode={rcfg.mode}, r={rcfg.fraction})")
    return 0


def cmd_policy_train(args) -> int:
    cfg = build_config(args)
    _echo_config(cfg, args.out)
    prior = pipeline.load_prior(cfg)
    target = pipeline.load_target(cfg)
    result = train_phase2(cfg, prior, target, args.skill_ckpt, args.out)
    print(f"phase 2 done; {len(result.checkpoints)} checkpoints, "
          f"final: {result.checkpoint}")
    return 0


def cmd_bc_train(args) -> int:
    cfg = build_config(args)
    _echo_config(cfg, args.out)
    target = pipeline.load_target(cfg)
    prior = pipeline.load_prior(cfg) if args.ft else None
    result = pipeline.bc_train(cfg, target, prior, args.out)
    print(f"bc train done; final: {result.checkpoint}")
    return 0


def cmd_eval(args) -> int:
    cfg = build_config(args)
    _echo_config(cfg, args.out)
    if args.ckpt:
        selected = [Path(p) for p in args.ckpt]
    else:
        run_dir = Path(args.run)
        ckpts = sorted((run_dir / "checkpoints").glob("ckpt_*.skck"))
        if not ckpts:
            raise UsageError(f"no checkpoints under {run_dir}")
        selected = pipeline.eval_checkpoint_selection(ckpts, cfg.eval_stride)
    report = evaluate_checkpoints(selected, cfg.task, cfg.eval_episodes, cfg.seed)
    write_report(report, args.out / "eval_report.json")
    print(json.dumps({"task": report["task"], "rates": report["rates"],
                      "best": report["best"]}))
    return 0


def cmd_ablate(args) -> int:
    cfg = build_config(args)
    _echo_config(cfg, args.out)
    axes = [a for a in (args.axes.split(",") if args.axes else []) if a]
    report = pipeline.ablate(cfg, axes, args.cell_seeds, args.out)
    print((Path(args.out) / "ablate_table.txt").read_text(), end="")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="skillbc",
        description="Skill-based imitation learning with prior-data retrieval")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate play and demo datasets")
    _add_common(p)
    p.add_argument("--force", action="store_true", help="overwrite existing output")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("skill-pretrain", help="phase 1: train the skill model")
    _add_common(p)
    p.set_defaults(fn=cmd_skill_pretrain)

    p = sub.add_parser("retrieve", help="run retrieval and write a report")
    _add_common(p)
    p.add_argument("--skill-ckpt", type=Path, required=True)
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("policy-train", help="phase 2: policy + skill fine-tuning")
    _add_common(p)
    p.add_argument("--skill-ckpt", type=Path, required=True)
    p.set_defaults(fn=cmd_policy_train)

    p = sub.add_parser("bc-train", help="BC-RNN baseline (use --ft for pretraining)")
    _add_common(p)
    p.add_argument("--ft", action="store_true", help="pretrain on the prior set first")
    p.set_defaults(fn=cmd_bc_train)

    p = sub.add_parser("eval", help="evaluate checkpoints on a task")
    _add_common(p)
    p.add_argument("--run", type=Path, help="training run directory")
    p.add_argument("--ckpt", nargs="*", help="explicit checkpoint files")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation grid")
    _add_common(p)
    p.add_argument("--axes", default="",
                   help=f"comma list from {pipeline.ABLATION_AXES}")
    p.add_argument("--cell-seeds", type=int, default=3)
    p.set_defaults(fn=cmd_ablate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, UsageError, FormatError, GenerationError, TrainingError,
            IntegrityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
