import json
from pathlib import Path

import numpy as np
import pytest

from skillbc import env, pipeline
from skillbc.cli import main
from skillbc.config import (ExperimentConfig, load_config, make_config,
                            save_config)
from skillbc.data import load_dataset
from skillbc.env import get_task
from skillbc.errors import ConfigError, GenerationError


def run_cli(*argv):
    return main([str(a) for a in argv])


TINY = dict(pretrain_steps=6, phase2_steps=6, bc_steps=6, bc_pretrain_steps=4,
            log_interval=2, pretrain_checkpoint_interval=3,
            phase2_checkpoint_interval=3, eval_stride=2, eval_episodes=2,
            play_trajectories=3, play_steps=120, demos_per_task=2,
            latent_dim=3, lstm_hidden=6, mlp_hidden=(6,), tp_hidden=(6,),
            holdout_fraction=0.34,
            retrieval=dict(mode="l2", fraction=0.5, num_prior=30, num_target=8))


def write_tiny_config(path, **overrides):
    cfg = make_config("desk", **{**TINY, **overrides})
    save_config(cfg, path)
    return cfg


# -- config ------------------------------------------------------------------------


def test_config_roundtrip_lossless(tmp_path):
    cfg = make_config("desk", seed=7, beta=3e-4, mlp_hidden=(32, 16))
    save_config(cfg, tmp_path / "c.json")
    again = load_config(tmp_path / "c.json")
    assert again == cfg
    assert again.fingerprint() == cfg.fingerprint()


def test_config_rejects_unknown_keys(tmp_path):
    (tmp_path / "c.json").write_text('{"sede": 3}')
    with pytest.raises(ConfigError, match="sede"):
        load_config(tmp_path / "c.json")


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config("desk", horizon=0)
    with pytest.raises(ConfigError):
        make_config("desk", retrieval=dict(mode="nearest"))
    with pytest.raises(ConfigError):
        make_config("desk", task="juggling")


def test_presets_differ():
    desk = make_config("desk")
    paper = make_config("paper")
    assert desk.lstm_hidden != paper.lstm_hidden
    assert paper.retrieval.num_prior == 250000
    assert paper.retrieval.num_target == 2500
    assert paper.alpha == 1e-6
    assert desk.beta == paper.beta
    assert desk.gamma == paper.gamma == 1.0
    assert desk.retrieval.fraction == paper.retrieval.fraction == 0.10


def test_desk_defaults_match_protocol():
    desk = make_config("desk")
    assert desk.horizon == 10 and desk.frame_stack == 10
    assert desk.latent_dim == 64
    assert desk.batch_size == 16
    assert (desk.lr_vae, desk.lr_tp, desk.lr_policy) == (5e-4, 1e-4, 1e-3)
    assert desk.demos_per_task == 30
    assert desk.eval_episodes == 50
    assert desk.eval_stride == 10
    assert desk.max_offset == 50
    assert desk.beta == 1e-5


def test_model_fingerprint_tracks_architecture_only():
    a = make_config("desk", seed=1)
    b = make_config("desk", seed=2)
    assert a.model_fingerprint(13, 4) == b.model_fingerprint(13, 4)
    c = make_config("desk", latent_dim=32)
    assert a.model_fingerprint(13, 4) != c.model_fingerprint(13, 4)
    assert a.model_fingerprint(13, 4) != a.model_fingerprint(12, 4)


# -- gen-data ------------------------------------------------------------------------


def test_gen_data_writes_datasets_and_is_reproducible(tmp_path):
    write_tiny_config(tmp_path / "c.json")
    assert run_cli("gen-data", "--config", tmp_path / "c.json",
                   "--out", tmp_path / "d1") == 0
    assert run_cli("gen-data", "--config", tmp_path / "c.json",
                   "--out", tmp_path / "d2") == 0
    for rel in ("prior/manifest.json", "prior/traj_00000.bin",
                "target_setting_up/traj_00001.bin", "gen_report.json"):
        assert (tmp_path / "d1" / rel).read_bytes() == (tmp_path / "d2" / rel).read_bytes()

    prior = load_dataset(tmp_path / "d1" / "prior")
    assert len(prior.trajectories) == 3
    assert all(t.length == 120 for t in prior.trajectories)
    report = json.loads((tmp_path / "d1" / "gen_report.json").read_text())
    assert report["prior"]["transitions"] == prior.transitions

    # every generated demo satisfies its task predicate at the final state
    for task_name in ("setting_up", "cleaning_up"):
        ds = load_dataset(tmp_path / "d1" / f"target_{task_name}")
        assert len(ds.trajectories) == 2
        task = get_task(task_name)
        for t in ds.trajectories:
            obs = t.observations[-1]
            lights_on = obs[9] == 1.0 and obs[10] == 1.0
            assert lights_on if task_name == "setting_up" else not (obs[9] or obs[10])


def test_gen_data_refuses_overwrite_without_force(tmp_path):
    write_tiny_config(tmp_path / "c.json")
    assert run_cli("gen-data", "--config", tmp_path / "c.json",
                   "--out", tmp_path / "d") == 0
    assert run_cli("gen-data", "--config", tmp_path / "c.json",
                   "--out", tmp_path / "d") == 2
    assert run_cli("gen-data", "--config", tmp_path / "c.json",
                   "--out", tmp_path / "d", "--force") == 0


def test_gen_data_generation_error_exits_2(tmp_path, monkeypatch, capsys):
    def failing_demo(task, rng, traj_id=0):
        raise GenerationError(f"demo script failed for {task.name!r} after 200 steps")
    # patch the defining module and the name gen-data imported from it
    monkeypatch.setattr(env, "scripted_demo", failing_demo)
    monkeypatch.setattr(pipeline, "scripted_demo", failing_demo)
    write_tiny_config(tmp_path / "c.json")
    assert run_cli("gen-data", "--config", tmp_path / "c.json",
                   "--out", tmp_path / "d") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: demo script failed for 'setting_up'")
    assert "Traceback" not in err


# -- full tiny pipeline through the CLI ------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_pipeline")
    cfg_path = root / "config.json"
    write_tiny_config(cfg_path)
    assert run_cli("gen-data", "--config", cfg_path, "--out", root / "data") == 0
    prior = root / "data" / "prior"
    target = root / "data" / "target_setting_up"
    assert run_cli("skill-pretrain", "--config", cfg_path, "--prior", prior,
                   "--out", root / "pre") == 0
    return root, cfg_path, prior, target


def test_cli_pretrain_outputs(tiny_run):
    root, cfg_path, prior, target = tiny_run
    assert (root / "pre" / "skill_final.skck").exists()
    lines = (root / "pre" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 6 // 2
    assert (root / "pre" / "config.json").exists()


def test_cli_retrieve_report(tiny_run):
    root, cfg_path, prior, target = tiny_run
    assert run_cli("retrieve", "--config", cfg_path, "--prior", prior,
                   "--target", target, "--skill-ckpt", root / "pre" / "skill_final.skck",
                   "--out", root / "ret") == 0
    report = json.loads((root / "ret" / "retrieval_report.json").read_text())
    assert report["mode"] == "l2"
    assert report["num_selected"] >= 1
    assert len(report["selected_sources"]) == report["num_selected"]


def test_cli_policy_train_then_eval(tiny_run):
    root, cfg_path, prior, target = tiny_run
    assert run_cli("policy-train", "--config", cfg_path, "--prior", prior,
                   "--target", target, "--skill-ckpt",
                   root / "pre" / "skill_final.skck", "--out", root / "p2") == 0
    ckpts = sorted((root / "p2" / "checkpoints").glob("ckpt_*.skck"))
    assert len(ckpts) == 2
    assert run_cli("eval", "--config", cfg_path, "--run", root / "p2",
                   "--out", root / "ev") == 0
    report = json.loads((root / "ev" / "eval_report.json").read_text())
    assert report["task"] == "setting_up"
    assert report["best"] == max(report["rates"])
    assert len(report["rates"]) == 1  # stride 2 over 2 checkpoints
    assert report["episodes_per_checkpoint"] == 2


def test_cli_policy_train_fingerprint_refusal(tiny_run, tmp_path):
    root, cfg_path, prior, target = tiny_run
    bad_cfg = tmp_path / "bad.json"
    write_tiny_config(bad_cfg, latent_dim=5)
    assert run_cli("policy-train", "--config", bad_cfg, "--prior", prior,
                   "--target", target, "--skill-ckpt",
                   root / "pre" / "skill_final.skck",
                   "--out", tmp_path / "p2") == 2


def test_cli_bc_train(tiny_run, tmp_path):
    root, cfg_path, prior, target = tiny_run
    out = tmp_path / "bc"
    assert run_cli("bc-train", "--config", cfg_path, "--target", target,
                   "--out", out) == 0
    assert (out / "bc_final.skck").exists()
    assert not (out / "bc_phase1.skck").exists()
    out_ft = tmp_path / "bc_ft"
    assert run_cli("bc-train", "--config", cfg_path, "--target", target,
                   "--prior", prior, "--ft", "--out", out_ft) == 0
    assert (out_ft / "bc_phase1.skck").exists()


def test_cli_flag_overrides(tiny_run, tmp_path):
    root, cfg_path, prior, target = tiny_run
    out = tmp_path / "p2o"
    assert run_cli("policy-train", "--config", cfg_path, "--prior", prior,
                   "--target", target, "--skill-ckpt",
                   root / "pre" / "skill_final.skck", "--out", out,
                   "--retrieval-mode", "none", "--gamma", "0.0",
                   "--no-tp") == 0
    echoed = load_config(out / "config.json")
    assert echoed.retrieval.mode == "none"
    assert echoed.gamma == 0.0
    assert echoed.alpha == 0.0
    assert not (out / "retrieval_report.json").exists()


def test_ablation_cells_axes():
    from skillbc import pipeline
    cfg = make_config("desk")
    cells = pipeline.ablation_cells(cfg, ["tp", "retrieval_mode", "retrieval_frac",
                                          "prior_frac", "no_prior"])
    names = [n for n, _ in cells]
    assert names[0] == "full"
    assert "no_tp" in names
    assert {"mode_kl", "mode_random", "mode_none", "mode_all"} <= set(names)
    assert {"r_02", "r_50", "r_90"} <= set(names)
    assert {"prior_25", "prior_50"} <= set(names)
    assert "no_prior" in names
    by_name = dict(cells)
    assert by_name["no_tp"].alpha == 0.0
    assert by_name["mode_none"].retrieval.mode == "none"
    assert by_name["prior_25"].prior_fraction == 0.25
    with pytest.raises(Exception):
        pipeline.ablation_cells(cfg, ["bogus_axis"])


def test_cli_ablate_single_cell_equals_standalone_run(tmp_path):
    cfg_path = tmp_path / "c.json"
    write_tiny_config(cfg_path, eval_episodes=2)
    assert run_cli("gen-data", "--config", cfg_path, "--out", tmp_path / "data") == 0
    prior = tmp_path / "data" / "prior"
    target = tmp_path / "data" / "target_setting_up"
    assert run_cli("ablate", "--config", cfg_path, "--prior", prior,
                   "--target", target, "--axes", "", "--cell-seeds", "1",
                   "--out", tmp_path / "grid") == 0
    report = json.loads((tmp_path / "grid" / "ablate_report.json").read_text())
    assert [c["name"] for c in report["cells"]] == ["full"]
    cell_rate = report["cells"][0]["rates"][0]

    # the same configuration run by hand reproduces the cell's rate
    from skillbc import pipeline
    cfg = load_config(cfg_path)
    cfg = ExperimentConfig.from_dict({**cfg.to_dict(),
                                      "prior_path": str(prior),
                                      "target_path": str(target)})
    prior_ds = pipeline.load_prior(cfg)
    target_ds = pipeline.load_target(cfg)
    ckpt = pipeline.pretrain_cached(cfg, prior_ds, tmp_path / "grid" / "pretrains")
    out = pipeline.run_phase2_and_eval(cfg, prior_ds, target_ds, ckpt,
                                       tmp_path / "manual", eval_seed=cfg.seed)
    assert out["best"] == cell_rate
    assert (tmp_path / "grid" / "ablate_table.txt").exists()
