import numpy as np
import pytest

from skillbc import retrieval
from skillbc.cli import main
from skillbc.config import make_config, save_config
from skillbc.data import TrajectoryDataset, Trajectory, extract_frame_stack, write_dataset
from skillbc.errors import IntegrityError, UsageError
from skillbc.gaussian import LOG_STD_MAX, LOG_STD_MIN, kl_numpy
from skillbc.policy import train_phase2
from skillbc.retrieval import (CHUNK_ROWS, EmbeddingSet, RetrievalSet,
                               build_retrieval_dataset, build_retrieval_set,
                               embed_samples, min_target_distances, pairwise_l2,
                               pairwise_symmetric_kl, retrieval_report,
                               retrieve_top, retrieve_top_from_min,
                               symmetric_kl_distance)
from skillbc.skill import SkillModel, pretrain


def _embedding_set(means, log_stds=None, origin="prior"):
    means = np.asarray(means, dtype=np.float64)
    if log_stds is None:
        log_stds = np.zeros_like(means)
    sources = [(0, i) for i in range(means.shape[0])]
    return EmbeddingSet(means, np.asarray(log_stds, dtype=np.float64), sources, origin)


# -- pairwise distances -----------------------------------------------------------


def test_pairwise_l2_identical_single_embedding():
    D = pairwise_l2(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
    assert D.shape == (1, 1) and D[0, 0] == 0.0


def test_pairwise_l2_hand_worked_instance():
    prior = np.array([[0.0, 0.0], [3.0, 4.0], [10.0, 0.0]])
    target = np.array([[0.0, 0.0], [9.0, 0.0]])
    D = pairwise_l2(prior, target)
    assert D[1, 0] == 5.0
    assert D[1, 1] == np.sqrt(52.0)
    assert np.array_equal(D[0], [0.0, 9.0])
    assert np.array_equal(D[2], [10.0, 1.0])


def test_pairwise_l2_matches_triple_loop_oracle_exactly():
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((100, 7)), rng.standard_normal((20, 7))
    D = pairwise_l2(A, B, chunk=17)  # odd chunk to exercise partitioning
    for i in range(100):
        row = np.sqrt(np.sum((A[i] - B) ** 2, axis=1))
        assert np.array_equal(D[i], row)


def test_pairwise_l2_chunked_equals_unchunked():
    rng = np.random.default_rng(1)
    A, B = rng.standard_normal((53, 5)), rng.standard_normal((11, 5))
    assert np.array_equal(pairwise_l2(A, B, chunk=7), pairwise_l2(A, B, chunk=100))


def test_symmetric_kl_identities():
    rng = np.random.default_rng(2)
    for _ in range(50):
        q1 = (rng.standard_normal(4), rng.uniform(-1, 1, 4))
        q2 = (rng.standard_normal(4), rng.uniform(-1, 1, 4))
        d12 = symmetric_kl_distance(q1, q2)
        d21 = symmetric_kl_distance(q2, q1)
        assert d12 == d21
        assert d12 >= 0.0
    q = (rng.standard_normal(4), rng.uniform(-1, 1, 4))
    assert symmetric_kl_distance(q, q) == 0.0


def test_symmetric_kl_closed_form_oracle():
    rng = np.random.default_rng(3)
    q1 = (rng.standard_normal(3), rng.uniform(-1, 1, 3))
    q2 = (rng.standard_normal(3), rng.uniform(-1, 1, 3))
    direct = 0.5 * (kl_numpy(q1[0], q1[1], q2[0], q2[1])
                    + kl_numpy(q2[0], q2[1], q1[0], q1[1]))
    assert symmetric_kl_distance(q1, q2) == float(direct)


def test_pairwise_symmetric_kl_matches_pairwise_scalar():
    rng = np.random.default_rng(4)
    prior = _embedding_set(rng.standard_normal((9, 3)), rng.uniform(-1, 1, (9, 3)))
    target = _embedding_set(rng.standard_normal((4, 3)), rng.uniform(-1, 1, (4, 3)),
                            origin="target")
    D = pairwise_symmetric_kl(prior, target, chunk=4)
    for i in range(9):
        for j in range(4):
            ref = symmetric_kl_distance((prior.means[i], prior.log_stds[i]),
                                        (target.means[j], target.log_stds[j]))
            assert D[i, j] == ref


def test_min_target_distances_streaming_matches_full_matrix():
    rng = np.random.default_rng(5)
    prior = _embedding_set(rng.standard_normal((40, 6)))
    target = _embedding_set(rng.standard_normal((9, 6)), origin="target")
    full = pairwise_l2(prior.means, target.means).min(axis=1)
    streamed = min_target_distances(prior, target, "l2", chunk=7)
    assert np.array_equal(full, streamed)


# -- screened kernel: exact against the difference-form oracles ---------------------


def _hard_case(kind, rng, N=45, M=13, d=9):
    """(prior, target) embedding sets built to stress the GEMM screen."""
    pm, tm = rng.standard_normal((N, d)), rng.standard_normal((M, d))
    ps, ts = rng.uniform(-1, 1, (N, d)), rng.uniform(-1, 1, (M, d))
    if kind == "duplicates":      # every prior row repeats a target row exactly
        pick = rng.integers(0, M, N)
        pm, ps = tm[pick].copy(), ts[pick].copy()
    elif kind == "near_ties":     # targets within 1e-13 of each other, off-origin
        tm = 50.0 + tm[:1] + 1e-13 * rng.standard_normal((M, d))
        ts = np.repeat(ts[:1], M, axis=0)
        pm = tm[:1] + rng.standard_normal((N, d))
    elif kind == "clamped":       # log_std at both clamp values
        ps = rng.choice([LOG_STD_MIN, LOG_STD_MAX], (N, d))
        ts = rng.choice([LOG_STD_MIN, LOG_STD_MAX], (M, d))
    elif kind == "offset":        # large common offset, small differences
        pm, tm = pm + 5e3, tm + 5e3
    elif kind == "single":
        pm, ps, tm, ts = pm[:1], ps[:1], tm[:1], ts[:1]
    return (_embedding_set(pm, ps),
            _embedding_set(tm, ts, origin="target"))


@pytest.mark.parametrize("chunk", [1, 7, CHUNK_ROWS, 1000])
@pytest.mark.parametrize("kind", ["random", "duplicates", "near_ties", "clamped",
                                  "offset", "single"])
def test_min_target_distances_equals_oracle_row_minima(kind, chunk):
    rng = np.random.default_rng(11)
    for d in (1, 3, 9, 64):
        prior, target = _hard_case(kind, rng, d=d)
        l2 = pairwise_l2(prior.means, target.means).min(axis=1)
        kl = pairwise_symmetric_kl(prior, target).min(axis=1)
        assert np.array_equal(min_target_distances(prior, target, "l2", chunk=chunk), l2)
        assert np.array_equal(min_target_distances(prior, target, "kl", chunk=chunk), kl)


def test_min_target_distances_input_contract():
    rng = np.random.default_rng(12)
    prior = _embedding_set(rng.standard_normal((5, 3)))
    target = _embedding_set(rng.standard_normal((4, 3)), origin="target")
    empty = _embedding_set(np.zeros((0, 3)), origin="target")
    narrow = _embedding_set(rng.standard_normal((4, 2)), origin="target")
    nan_mean = _embedding_set(np.where(np.eye(5, 3) > 0, np.nan, 0.0))
    inf_std = _embedding_set(np.zeros((4, 3)), np.full((4, 3), np.inf), origin="target")
    for metric in ("l2", "kl"):
        with pytest.raises(UsageError, match="non-empty embedding sets"):
            min_target_distances(prior, empty, metric)
        with pytest.raises(UsageError, match="non-empty embedding sets"):
            min_target_distances(empty, target, metric)
        with pytest.raises(UsageError, match="latent dimensions differ"):
            min_target_distances(prior, narrow, metric)
        with pytest.raises(UsageError, match="prior embeddings contain non-finite"):
            min_target_distances(nan_mean, target, metric)
        with pytest.raises(UsageError, match="target embeddings contain non-finite"):
            min_target_distances(prior, inf_std, metric)
    with pytest.raises(UsageError, match="unknown retrieval metric"):
        min_target_distances(prior, target, "cosine")


# -- distances are computed once per run --------------------------------------------


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = retrieval.min_target_distances

    def counted(*args, **kwargs):
        calls.append(kwargs.get("metric", args[2] if len(args) > 2 else None))
        return kernel(*args, **kwargs)
    monkeypatch.setattr(retrieval, "min_target_distances", counted)
    return calls


def _phase2_inputs(tmp_path):
    cfg = make_config("desk", latent_dim=3, lstm_hidden=6, lstm_layers=1,
                      mlp_hidden=(6,), tp_hidden=(6,), horizon=4, frame_stack=3,
                      batch_size=4, pretrain_steps=2, phase2_steps=2, log_interval=1,
                      pretrain_checkpoint_interval=2, phase2_checkpoint_interval=2,
                      retrieval=dict(mode="l2", fraction=0.5, num_prior=30,
                                     num_target=8))
    rng = np.random.default_rng(13)
    prior, target = [
        TrajectoryDataset([Trajectory(rng.standard_normal((21, 5)),
                                      rng.standard_normal((20, 2)), i)
                           for i in range(n)], role, 5, 2)
        for n, role in ((3, "prior"), (2, "target"))]
    ckpt = pretrain(cfg, prior, tmp_path / "pre").checkpoint
    return cfg, prior, target, ckpt


def test_train_phase2_computes_distances_once(tmp_path, monkeypatch):
    cfg, prior, target, ckpt = _phase2_inputs(tmp_path)
    calls = _count_kernel_calls(monkeypatch)
    result = train_phase2(cfg, prior, target, ckpt, tmp_path / "p2")
    assert calls == ["l2"]
    assert result.retrieval_report["all_distance_quantiles"] is not None


def test_cmd_retrieve_computes_distances_once(tmp_path, monkeypatch):
    cfg, prior, target, ckpt = _phase2_inputs(tmp_path)
    write_dataset(prior, tmp_path / "prior")
    write_dataset(target, tmp_path / "target")
    save_config(cfg, tmp_path / "config.json")
    calls = _count_kernel_calls(monkeypatch)
    assert main(["retrieve", "--config", str(tmp_path / "config.json"),
                 "--prior", str(tmp_path / "prior"), "--target", str(tmp_path / "target"),
                 "--skill-ckpt", str(ckpt), "--out", str(tmp_path / "ret")]) == 0
    assert calls == ["l2"]


# -- ranking ------------------------------------------------------------------------


def test_retrieve_top_hand_worked_instance():
    prior = np.array([[0.0, 0.0], [3.0, 4.0], [10.0, 0.0]])
    target = np.array([[0.0, 0.0], [9.0, 0.0]])
    D = pairwise_l2(prior, target)
    # D_min = (0, 5, 1); covering 2 of 3 selects indices {0, 2}
    rset = retrieve_top(D, 2.0 / 3.0, "l2")
    assert [e.prior_index for e in rset.entries] == [0, 2]
    assert [e.distance for e in rset.entries] == [0.0, 1.0]


def test_retrieve_fraction_zero_is_empty():
    D = pairwise_l2(np.eye(4), np.eye(4))
    assert len(retrieve_top(D, 0.0, "l2")) == 0
    assert len(retrieve_top(D, 0.5, "none")) == 0


def test_identical_prior_target_pair_ranks_first():
    rng = np.random.default_rng(6)
    target = rng.standard_normal((5, 3))
    prior = np.vstack([rng.standard_normal((7, 3)) + 5.0, target[2]])
    D = pairwise_l2(prior, target)
    rset = retrieve_top(D, 0.2, "l2")
    assert rset.entries[0].prior_index == 7
    assert rset.entries[0].distance == 0.0


def test_stable_tie_break_by_prior_index():
    prior = np.zeros((4, 2))
    target = np.ones((2, 2))
    D = pairwise_l2(prior, target)  # all distances identical
    rset = retrieve_top(D, 0.75, "l2")
    assert [e.prior_index for e in rset.entries] == [0, 1, 2]


def test_mode_all_returns_everything_in_order():
    rng = np.random.default_rng(7)
    D = pairwise_l2(rng.standard_normal((6, 2)), rng.standard_normal((3, 2)))
    rset = retrieve_top(D, 0.1, "all")
    assert [e.prior_index for e in rset.entries] == list(range(6))


def test_mode_random_is_permutation_prefix_and_monotone():
    rng_master = np.random.default_rng(8)
    D = pairwise_l2(rng_master.standard_normal((20, 2)),
                    rng_master.standard_normal((4, 2)))
    small = retrieve_top(D, 0.25, "random", rng=np.random.default_rng(42))
    large = retrieve_top(D, 0.75, "random", rng=np.random.default_rng(42))
    small_idx = [e.prior_index for e in small.entries]
    large_idx = [e.prior_index for e in large.entries]
    assert large_idx[:len(small_idx)] == small_idx
    assert len(set(large_idx)) == len(large_idx)


def test_monotone_prefix_for_ranked_modes():
    rng = np.random.default_rng(9)
    D = pairwise_l2(rng.standard_normal((30, 3)), rng.standard_normal((5, 3)))
    prev = []
    for r in (0.1, 0.3, 0.6, 1.0):
        cur = [e.prior_index for e in retrieve_top(D, r, "l2").entries]
        assert cur[:len(prev)] == prev
        prev = cur


def test_fraction_outside_unit_interval_rejected():
    D = np.zeros((2, 2))
    with pytest.raises(UsageError):
        retrieve_top(D, 1.5, "l2")
    with pytest.raises(UsageError):
        retrieve_top(D, -0.1, "l2")


def test_floor_count_with_float_fraction_artifacts():
    d_min = np.arange(10, dtype=np.float64)
    assert len(retrieve_top_from_min(d_min, 0.3, "l2")) == 3
    assert len(retrieve_top_from_min(d_min, 0.1, "l2")) == 1
    assert len(retrieve_top_from_min(d_min, 1.0, "l2")) == 10


# -- brute-force equivalence (small-scale; the acceptance suite runs the big one) ---


def brute_force_rank(D, fraction, mode, rng=None):
    N = D.shape[0]
    d_min = np.array([min(D[i]) for i in range(N)])
    if mode == "none":
        return []
    if mode == "all":
        return list(range(N))
    n = int(np.floor(fraction * N + 1e-9))
    if mode == "random":
        return [int(i) for i in rng.permutation(N)[:n]]
    pairs = sorted(range(N), key=lambda i: (d_min[i], i))
    return pairs[:n]


@pytest.mark.parametrize("mode", ["l2", "kl", "random", "none", "all"])
def test_modes_match_brute_force(mode):
    rng = np.random.default_rng(10)
    for trial in range(10):
        N = int(rng.integers(1, 200))
        M = int(rng.integers(1, 20))
        d = int(rng.integers(1, 8))
        prior = _embedding_set(rng.standard_normal((N, d)),
                               rng.uniform(-1, 1, (N, d)))
        target = _embedding_set(rng.standard_normal((M, d)),
                                rng.uniform(-1, 1, (M, d)), origin="target")
        frac = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
        if mode == "kl":
            D = pairwise_symmetric_kl(prior, target)
        else:
            D = pairwise_l2(prior.means, target.means)
        seed = int(rng.integers(2 ** 31))
        got = [e.prior_index
               for e in retrieve_top(D, frac, mode, rng=np.random.default_rng(seed)).entries]
        want = brute_force_rank(D, frac, mode, rng=np.random.default_rng(seed))
        assert got == want


# -- embed_samples and dataset building ----------------------------------------------


def _tiny_model_and_dataset():
    cfg = make_config("desk", latent_dim=3, lstm_hidden=8, mlp_hidden=(8,),
                      tp_hidden=(8,), horizon=4)
    rng = np.random.default_rng(0)
    trajs = [Trajectory(rng.standard_normal((21, 5)), rng.standard_normal((20, 3)), i)
             for i in range(3)]
    ds = TrajectoryDataset(trajs, "prior", 5, 3)
    model = SkillModel(5, 3, cfg, seed=0)
    return model, ds, cfg


def test_embed_single_sample_matches_encode():
    model, ds, cfg = _tiny_model_and_dataset()
    rng = np.random.default_rng(1)
    es = embed_samples(model, ds, 1, rng)
    assert len(es) == 1
    tid, start = es.sources[0]
    traj = ds.trajectories[tid]
    from skillbc.data import extract_window
    w = extract_window(traj, start, model.H, 0)
    mean, log_std = model.encode_numpy(w.window_obs[None], w.window_actions[None])
    assert np.array_equal(es.means[0], mean[0])
    assert np.array_equal(es.log_stds[0], log_std[0])


def test_embed_fixed_seed_reproducible():
    model, ds, cfg = _tiny_model_and_dataset()
    a = embed_samples(model, ds, 10, np.random.default_rng(5))
    b = embed_samples(model, ds, 10, np.random.default_rng(5))
    assert a.sources == b.sources
    assert np.array_equal(a.means, b.means)


def test_embed_dedupes_and_caps():
    model, ds, cfg = _tiny_model_and_dataset()
    es = embed_samples(model, ds, 40, np.random.default_rng(2))
    assert len(set(es.sources)) == len(es.sources)
    # count >= available windows enumerates every start once, in order
    es_all = embed_samples(model, ds, 10 ** 6, np.random.default_rng(2))
    assert len(es_all) == 60
    assert es_all.sources == [(t, s) for t in range(3) for s in range(20)]


def test_build_retrieval_dataset_re_extraction():
    model, ds, cfg = _tiny_model_and_dataset()
    prior_set = embed_samples(model, ds, 30, np.random.default_rng(3))
    target_set = embed_samples(model, ds, 5, np.random.default_rng(4))
    rset = build_retrieval_set(prior_set, target_set, "l2", 0.5)
    pairs = build_retrieval_dataset(ds, rset, F=6)
    assert len(pairs) == len(rset)
    for entry, (frames, z) in zip(rset.entries, pairs):
        tid, start = entry.source
        assert np.array_equal(frames, extract_frame_stack(ds.trajectories[tid],
                                                          start, 6))
        assert np.array_equal(z, entry.mean)


def test_build_retrieval_dataset_empty_set():
    model, ds, cfg = _tiny_model_and_dataset()
    assert build_retrieval_dataset(ds, RetrievalSet([], "none", 0.0), F=4) == []


def test_stale_source_raises_integrity_error():
    model, ds, cfg = _tiny_model_and_dataset()
    prior_set = embed_samples(model, ds, 10, np.random.default_rng(6))
    rset = build_retrieval_set(prior_set, prior_set, "l2", 0.5)
    rset.entries[0].source = (99, 0)
    with pytest.raises(IntegrityError):
        build_retrieval_dataset(ds, rset, F=4)
    rset = build_retrieval_set(prior_set, prior_set, "l2", 0.5)
    rset.entries[0].source = (0, 10 ** 6)
    with pytest.raises(IntegrityError):
        build_retrieval_dataset(ds, rset, F=4)


def test_retrieval_report_shape():
    model, ds, cfg = _tiny_model_and_dataset()
    prior_set = embed_samples(model, ds, 30, np.random.default_rng(7))
    target_set = embed_samples(model, ds, 4, np.random.default_rng(8))
    d_min = min_target_distances(prior_set, target_set, "l2")
    rset = build_retrieval_set(prior_set, target_set, "l2", 0.2)
    assert np.array_equal(rset.d_min, d_min)
    report = retrieval_report(rset, len(prior_set), len(target_set))
    assert report["all_distance_quantiles"]["50"] == float(np.percentile(d_min, 50))
    assert report["mode"] == "l2"
    assert report["num_selected"] == len(rset)
    assert set(report["selected_distance_quantiles"]) == {"0", "25", "50", "75", "100"}
    assert len(report["selected_sources"]) == len(rset)
