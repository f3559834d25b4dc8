"""Embedding-space retrieval: rank prior windows by closeness to target windows.

Each sampled prior window gets the minimum distance to any target window; the
ranking is a stable ascending argsort (ties broken by prior index) and the top
floor(r*N) entries are retrieved. `build_retrieval_set` is the one entry point:
it computes those minima once and keeps them on the set for the report.

Each distance has one definition, the per-pair difference form (`_l2_sq`,
`_sym_kl`). `pairwise_l2` and `pairwise_symmetric_kl` evaluate it on every pair
and are the reference. `min_target_distances` returns their row minima bit for
bit without evaluating every pair. Per chunk of `CHUNK_ROWS` prior rows:

1. Screen. One GEMM gives an expanded estimate of every pair's distance, the
   FAISS expansion (Johnson et al., arXiv:1702.08734): ||b||^2 - 2 a.b for l2,
   and for the symmetric KL a product of 4d exponential features plus row and
   column constants.
2. Bound. A rounding-error analysis gives each pair a tolerance that covers the
   estimate's error and the difference form's error, both derived from the
   operands' magnitudes, so the difference-form value lies within
   estimate +- tolerance.
3. Re-rank. A pair whose lower end lies above the smallest upper end in its row
   cannot hold the row minimum. The remaining pairs, about one per row on real
   embeddings, are recomputed in difference form and reduced.

Why the result is exact: the row minimum is attained by some pair, that pair
always survives step 3, and step 3 evaluates the same expression on the same
operands as the full matrix does, so it yields the same bits. Memory stays at
O(CHUNK_ROWS x N_target).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (SubTrajectoryStream, TrajectoryDataset, extract_frame_stack,
                   extract_window)
from .errors import IntegrityError, UsageError
from .gaussian import kl_numpy

CHUNK_ROWS = 256


@dataclass
class EmbeddingSet:
    means: np.ndarray                  # (N, d)
    log_stds: np.ndarray               # (N, d)
    sources: list[tuple[int, int]]     # (trajectory id, start)
    origin: str                        # "prior" | "target"

    def __post_init__(self):
        if self.means.shape != self.log_stds.shape:
            raise UsageError("means and log_stds must have matching shapes")
        if len(self.sources) != self.means.shape[0]:
            raise UsageError("one source per embedding required")

    def __len__(self) -> int:
        return self.means.shape[0]


@dataclass
class RetrievalEntry:
    prior_index: int
    distance: float
    source: tuple[int, int] | None = None
    mean: np.ndarray | None = None


@dataclass
class RetrievalSet:
    entries: list[RetrievalEntry]
    mode: str
    fraction: float
    d_min: np.ndarray | None = None    # per-prior minimum distance (l2, kl)

    def __len__(self) -> int:
        return len(self.entries)

    def sources(self) -> list[tuple[int, int]]:
        return [e.source for e in self.entries]


def embed_samples(model, dataset: TrajectoryDataset, count: int,
                  rng: np.random.Generator, enumerate_all: bool = False,
                  batch: int = 512) -> EmbeddingSet:
    """Sample `count` windows (with replacement), dedupe sources, encode them.

    `count` is capped at the number of available window starts; with
    `enumerate_all` every start in the stream is used instead of sampling.
    """
    if count < 1:
        raise UsageError("count must be >= 1")
    stream_ = SubTrajectoryStream(dataset, model.H, 0)
    if enumerate_all or count >= stream_.total:
        sources = [(traj.id, s) for traj in stream_.eligible
                   for s in range(traj.length)]
    else:
        seen = set()
        sources = []
        for _ in range(count):
            sample = stream_.sample(rng)
            if sample.source not in seen:
                seen.add(sample.source)
                sources.append(sample.source)
    by_id = {t.id: t for t in stream_.eligible}
    means, log_stds = [], []
    for lo in range(0, len(sources), batch):
        windows = [extract_window(by_id[tid], s, model.H, 0)
                   for tid, s in sources[lo:lo + batch]]
        obs = np.stack([w.window_obs for w in windows])
        act = np.stack([w.window_actions for w in windows])
        m, ls = model.encode_numpy(obs, act)
        means.append(m)
        log_stds.append(ls)
    return EmbeddingSet(np.concatenate(means), np.concatenate(log_stds),
                        sources, dataset.role)


# -- distances -------------------------------------------------------------------

EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).tiny


def _l2_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared l2 distance over the last axis, in difference form."""
    diff = a - b
    return np.sum(diff * diff, axis=-1)


def _sym_kl(am, asd, bm, bsd) -> np.ndarray:
    """0.5 * (KL(a||b) + KL(b||a)) over the last axis, in difference form."""
    return 0.5 * (kl_numpy(am, asd, bm, bsd) + kl_numpy(bm, bsd, am, asd))


def pairwise_l2(prior_means: np.ndarray, target_means: np.ndarray,
                chunk: int = CHUNK_ROWS) -> np.ndarray:
    """D[i][j] = ||prior_i - target_j||_2, computed in row chunks."""
    A = np.asarray(prior_means, dtype=np.float64)
    B = np.asarray(target_means, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise UsageError(f"bad embedding shapes {A.shape} vs {B.shape}")
    D = np.empty((A.shape[0], B.shape[0]))
    for lo in range(0, A.shape[0], chunk):
        D[lo:lo + chunk] = np.sqrt(_l2_sq(A[lo:lo + chunk, None, :], B[None, :, :]))
    return D


def symmetric_kl_distance(q1: tuple, q2: tuple) -> float:
    """0.5 * (KL(q1||q2) + KL(q2||q1)) for (mean, log_std) pairs."""
    return float(_sym_kl(q1[0], q1[1], q2[0], q2[1]))


def pairwise_symmetric_kl(prior_set: EmbeddingSet, target_set: EmbeddingSet,
                          chunk: int = CHUNK_ROWS) -> np.ndarray:
    Am, As = prior_set.means, prior_set.log_stds
    Bm, Bs = target_set.means, target_set.log_stds
    if Am.shape[1] != Bm.shape[1]:
        raise UsageError("latent dimensions differ between embedding sets")
    D = np.empty((len(prior_set), len(target_set)))
    for lo in range(0, Am.shape[0], chunk):
        D[lo:lo + chunk] = _sym_kl(Am[lo:lo + chunk, None, :], As[lo:lo + chunk, None, :],
                                   Bm[None, :, :], Bs[None, :, :])
    return D


def _check_embeddings(prior_set: EmbeddingSet, target_set: EmbeddingSet) -> None:
    """Input contract of `min_target_distances`, the same for every metric."""
    if len(prior_set) == 0 or len(target_set) == 0:
        raise UsageError(f"distances need non-empty embedding sets, got "
                         f"{len(prior_set)} prior and {len(target_set)} target rows")
    if prior_set.means.ndim != 2 or prior_set.means.shape[1:] != target_set.means.shape[1:]:
        raise UsageError(f"latent dimensions differ between embedding sets: "
                         f"{prior_set.means.shape} vs {target_set.means.shape}")
    for es in (prior_set, target_set):
        if not (np.all(np.isfinite(es.means)) and np.all(np.isfinite(es.log_stds))):
            raise UsageError(f"{es.origin} embeddings contain non-finite means or log-stds")


# Screens. Each returns, for prior rows [lo, hi), a GEMM estimate S of every
# pair's distance on a scale that increases with it (and may shift per row),
# and a tolerance T. T is a first-order rounding bound, from the operands'
# magnitudes, on the error of S plus the error of the difference form on the
# same scale plus the roundings of the filter (S - T, S + T), with a margin.
# The TINY term covers underflow, which adds an absolute error of at most half
# a subnormal spacing per operation.


def _l2_screen(A: np.ndarray, B: np.ndarray):
    """S = ||b||^2 - 2 a.b, the squared l2 distance less the row constant ||a||^2.

    With s = ||a||^2 + ||b||^2, rounding moves S by at most (d + 1) EPS s, the
    difference form by at most (d + 2) EPS s and the filter by EPS s.
    T = 4 (d + 4) EPS (max ||a||^2 + ||b||^2) is twice their sum.
    """
    d = A.shape[1]
    nb = np.einsum("ij,ij->i", B, B)
    minus_2bt = (-2.0 * B).T  # scaling by a power of two is exact
    col = 4 * (d + 4) * EPS * (nb + TINY)

    def screen(lo: int, hi: int):
        a = A[lo:hi]
        S = a @ minus_2bt
        S += nb
        return S, col + 4 * (d + 4) * EPS * np.einsum("ij,ij->i", a, a).max()
    return screen


def _kl_screen(Am: np.ndarray, As: np.ndarray, Bm: np.ndarray, Bs: np.ndarray):
    """S = 4 sym + 2d from one GEMM of 4d features plus row and column constants.

    With v = exp(2s) and i = exp(-2s), 4 sym + 2d is the sum over dimensions of
    (v_a + m_a^2) i_b + i_a (v_b + m_b^2) + (m_a i_a)(-2 m_b) + m_a (-2 m_b i_b)
    + m_a^2 i_a + m_b^2 i_b. All terms but the two cross terms are non-negative;
    their sum Q also bounds the cross terms in absolute value (AM-GM), so every
    rounding error is relative to Q. With exp accurate to 4 ulps, rounding moves
    S by at most (2.5d + 24) EPS Q, the difference form (scaled by 4) by at most
    (1.5d + 6 sigma + 17) EPS Q, since its exp argument's error grows with
    sigma = max |s|, and the filter by 2 EPS Q. T = 8 (d + 2 sigma + 8) EPS Q is
    at least 1.4 times their sum.
    """
    d = Am.shape[1]
    sigma = max(float(np.abs(As).max()), float(np.abs(Bs).max()))
    c = 8 * (d + 2 * sigma + 8) * EPS
    vb, ib = np.exp(2.0 * Bs), np.exp(-2.0 * Bs)
    b_pos = np.hstack([ib, vb + Bm * Bm]).T
    b_cross = np.hstack([-2.0 * Bm, -2.0 * Bm * ib]).T
    rb = np.sum(Bm * Bm * ib, axis=1) + TINY

    def screen(lo: int, hi: int):
        am, asd = Am[lo:hi], As[lo:hi]
        va, ia = np.exp(2.0 * asd), np.exp(-2.0 * asd)
        Q = np.hstack([va + am * am, ia]) @ b_pos
        Q += np.sum(am * am * ia, axis=1)[:, None]
        Q += rb
        S = np.hstack([am * ia, am]) @ b_cross
        S += Q
        Q *= c
        return S, Q
    return screen


def min_target_distances(prior_set: EmbeddingSet, target_set: EmbeddingSet,
                         metric: str, chunk: int = CHUNK_ROWS) -> np.ndarray:
    """Per-prior minimum distance to any target: the row minima of `pairwise_l2`
    or `pairwise_symmetric_kl`, bit for bit, in O(chunk x N_target) memory.

    Per chunk of prior rows, a GEMM screen brackets every pair's distance in
    [S - T, S + T]. Only pairs whose lower end is not above the row's smallest
    upper end can hold the row minimum (a NaN bound keeps its pair); those are
    recomputed in difference form and reduced. l2 is reduced squared; sqrt is
    monotone, so taking it after the minimum gives the same value.
    """
    _check_embeddings(prior_set, target_set)
    Am, As = prior_set.means, prior_set.log_stds
    Bm, Bs = target_set.means, target_set.log_stds
    if metric == "l2":
        screen = _l2_screen(Am, Bm)
        exact = lambda rows, cols: _l2_sq(Am[rows], Bm[cols])
    elif metric == "kl":
        screen = _kl_screen(Am, As, Bm, Bs)
        exact = lambda rows, cols: _sym_kl(Am[rows], As[rows],
                                           Bm[cols], Bs[cols])
    else:
        raise UsageError(f"unknown retrieval metric {metric!r}")
    out = np.empty(len(prior_set))
    for lo in range(0, len(prior_set), chunk):
        hi = min(lo + chunk, len(prior_set))
        S, T = screen(lo, hi)
        upper = np.min(S + T, axis=1)
        rows, cols = np.nonzero(~(S - T > upper[:, None]))
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        out[lo:hi] = np.minimum.reduceat(exact(lo + rows, cols), starts)
    return np.sqrt(out) if metric == "l2" else out


# -- ranking ----------------------------------------------------------------------


def _count(fraction: float, n: int) -> int:
    # epsilon guards floor(0.3 * 10) == 2 style float artifacts
    return int(math.floor(fraction * n + 1e-9))


def retrieve_top_from_min(d_min: np.ndarray | None, fraction: float, mode: str,
                          total: int | None = None,
                          rng: np.random.Generator | None = None) -> list[tuple[int, float]]:
    """Ranked (prior index, distance) pairs for every retrieval mode.

    Random mode takes a prefix of one seeded permutation, so smaller fractions
    are prefixes of larger ones there too.
    """
    if not 0.0 <= fraction <= 1.0:
        raise UsageError(f"fraction {fraction} outside [0, 1]")
    N = total if d_min is None else len(d_min)
    if N is None:
        raise UsageError("need d_min or an explicit total")
    if mode == "none":
        return []
    if mode == "all":
        return [(i, float(d_min[i]) if d_min is not None else float("nan"))
                for i in range(N)]
    n = _count(fraction, N)
    if mode == "random":
        if rng is None:
            raise UsageError("random mode requires an rng")
        picks = rng.permutation(N)[:n]
        return [(int(i), float(d_min[i]) if d_min is not None else float("nan"))
                for i in picks]
    if mode in ("l2", "kl"):
        if d_min is None:
            raise UsageError(f"mode {mode!r} requires distances")
        order = np.argsort(d_min, kind="stable")[:n]
        return [(int(i), float(d_min[i])) for i in order]
    raise UsageError(f"unknown retrieval mode {mode!r}")


def retrieve_top(D: np.ndarray, fraction: float, mode: str,
                 rng: np.random.Generator | None = None,
                 prior_set: EmbeddingSet | None = None) -> RetrievalSet:
    """Rank from a full distance matrix (per-prior min over targets)."""
    D = np.asarray(D, dtype=np.float64)
    d_min = D.min(axis=1) if D.size else np.zeros(D.shape[0])
    pairs = retrieve_top_from_min(d_min, fraction, mode, rng=rng)
    return _to_set(pairs, mode, fraction, prior_set)


def _to_set(pairs, mode, fraction, prior_set, d_min=None) -> RetrievalSet:
    entries = []
    for i, dist in pairs:
        source = prior_set.sources[i] if prior_set is not None else None
        mean = prior_set.means[i].copy() if prior_set is not None else None
        entries.append(RetrievalEntry(prior_index=i, distance=dist,
                                      source=source, mean=mean))
    return RetrievalSet(entries, mode, fraction, d_min)


def build_retrieval_set(prior_set: EmbeddingSet, target_set: EmbeddingSet,
                        mode: str, fraction: float,
                        rng: np.random.Generator | None = None) -> RetrievalSet:
    """Pipeline entry point and the only caller of `min_target_distances`.

    For the ranked modes the set carries `d_min`, which `retrieval_report` reads.
    """
    d_min = None
    if mode in ("l2", "kl"):
        d_min = min_target_distances(prior_set, target_set, metric=mode)
        pairs = retrieve_top_from_min(d_min, fraction, mode)
    else:
        pairs = retrieve_top_from_min(None, fraction, mode, total=len(prior_set),
                                      rng=rng)
    return _to_set(pairs, mode, fraction, prior_set, d_min)


def build_retrieval_dataset(dataset: TrajectoryDataset, retrieval_set: RetrievalSet,
                            F: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pair each retained mean embedding with the frame stack preceding its window."""
    by_id = {t.id: t for t in dataset.trajectories}
    out = []
    for entry in retrieval_set.entries:
        if entry.source is None or entry.mean is None:
            raise IntegrityError("retrieval entry lacks source bookkeeping")
        tid, start = entry.source
        traj = by_id.get(tid)
        if traj is None or not 0 <= start < traj.length:
            raise IntegrityError(
                f"stale retrieval source ({tid}, {start}) for this dataset")
        out.append((extract_frame_stack(traj, start, F), entry.mean.copy()))
    return out


def retrieval_report(retrieval_set: RetrievalSet, num_prior: int,
                     num_target: int) -> dict:
    qs = [0, 25, 50, 75, 100]
    d_min = retrieval_set.d_min
    selected = [d.distance for d in retrieval_set.entries
                if np.isfinite(d.distance)]
    report = {
        "schema_version": 1,
        "mode": retrieval_set.mode,
        "fraction": retrieval_set.fraction,
        "num_prior": num_prior,
        "num_target": num_target,
        "num_selected": len(retrieval_set),
        "selected_sources": [list(e.source) if e.source else [e.prior_index]
                             for e in retrieval_set.entries],
        "selected_distance_quantiles": (
            {str(q): float(np.percentile(selected, q)) for q in qs}
            if selected else None),
        "all_distance_quantiles": (
            {str(q): float(np.percentile(d_min, q)) for q in qs}
            if d_min is not None and len(d_min) else None),
    }
    return report
