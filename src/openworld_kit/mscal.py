"""Per-class contrastive anchor modules over feature pyramids.

Each known class owns a small per-layer projector (affine -> batchnorm ->
ReLU -> affine -> optional L2 normalization) and a per-layer unit anchor.
Training pulls projected positives onto the class anchor and pushes
other-class and sampled background locations away. At inference the negated
best anchor similarity at a location is its out-of-distribution score:
locations outside every known-class cluster score high.

All gradients are computed analytically, including the coupling through the
batchnorm batch statistics in train mode and through the final
normalization; tests verify them against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateProjection,
    EmptyScores,
    NoModules,
    NoSamples,
    ParseError,
    ShapeMismatch,
    ZeroVector,
)
from .pyramid import FeaturePyramid

BN_EPS = 1e-5
_NORM_EPS = 1e-12


@dataclass
class MscalLayerParams:
    """Projector parameters and anchor for one pyramid level."""

    w1: np.ndarray            # (D, Dh)
    b1: np.ndarray            # (Dh,)
    gamma: np.ndarray         # (Dh,) batchnorm scale
    beta: np.ndarray          # (Dh,) batchnorm shift
    running_mean: np.ndarray  # (Dh,)
    running_var: np.ndarray   # (Dh,)
    w2: np.ndarray            # (Dh, Dz)
    b2: np.ndarray            # (Dz,)
    anchor: np.ndarray        # (Dz,)


# the fields the optimizer updates, in the order it sees them; the running
# batchnorm statistics move only by momentum
TRAINED_FIELDS = ("w1", "b1", "gamma", "beta", "w2", "b2", "anchor")


@dataclass
class MscalModule:
    """One class's projector stack and anchors.

    `frozen` modules are skipped by the optimizer and keep their running
    batchnorm statistics locked, so identical inputs give bit-identical
    outputs forever after. When `normalize` is on, projected vectors and
    anchors are unit-normalized before every inner product and anchors are
    re-normalized after each optimizer step. With `share_anchor` every
    layer scores against the first layer's anchor.
    """

    class_id: int
    task_id: int
    layers: list[MscalLayerParams]
    tau: float = 0.1
    frozen: bool = False
    normalize: bool = True
    share_anchor: bool = False
    bn_momentum: float = 0.1

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def in_dim(self) -> int:
        return int(self.layers[0].w1.shape[0])

    def effective_anchor(self, layer: int) -> np.ndarray:
        mu = self.layers[0 if self.share_anchor else layer].anchor
        if not self.normalize:
            return mu
        n = float(np.linalg.norm(mu))
        if n < _NORM_EPS:
            raise ZeroVector(f"anchor of layer {layer} has zero norm")
        return mu / n


def _orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    if cols <= rows:
        q, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
        return q
    return rng.normal(size=(rows, cols)) / np.sqrt(rows)


def init_module(
    class_id: int,
    task_id: int,
    dim: int,
    num_layers: int,
    rng: np.random.Generator,
    tau: float = 0.1,
    normalize: bool = True,
    share_anchor: bool = False,
    bn_momentum: float = 0.1,
) -> MscalModule:
    """Fresh module with near-isometric projectors.

    The affine maps start as orthonormal frames so projected geometry
    roughly mirrors input geometry before any training; the positive
    batchnorm shift and small output bias keep ReLU rows alive and the
    final normalization away from zero vectors.
    """
    dz = max(2, dim // 2)
    layers = []
    for _ in range(num_layers):
        layers.append(MscalLayerParams(
            w1=_orthonormal(rng, dim, dim),
            b1=np.zeros(dim),
            gamma=np.ones(dim),
            beta=np.full(dim, 0.25),
            running_mean=np.zeros(dim),
            running_var=np.ones(dim),
            w2=_orthonormal(rng, dim, dz),
            b2=np.full(dz, 0.01),
            anchor=_unit(rng.normal(size=dz)),
        ))
    return MscalModule(class_id=class_id, task_id=task_id, layers=layers, tau=tau,
                       normalize=normalize, share_anchor=share_anchor,
                       bn_momentum=bn_momentum)


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n < _NORM_EPS:
        raise ZeroVector("zero vector cannot be normalized")
    return v / n


# ---------------------------------------------------------------------------
# projection


def _check_grids(module: MscalModule, grids: list[np.ndarray]) -> None:
    if len(grids) != module.num_layers:
        raise ShapeMismatch(
            f"module expects {module.num_layers} layers, pyramid has {len(grids)}")
    for g in grids:
        if g.shape[-1] != module.in_dim:
            raise ShapeMismatch(
                f"module expects dim {module.in_dim}, grid has {g.shape[-1]}")


def project(
    module: MscalModule,
    grids: list[np.ndarray] | FeaturePyramid,
    mode: str = "infer",
    update_stats: bool = False,
    with_trace: bool = False,
):
    """Map every pyramid location into the module's class space.

    `grids` is a FeaturePyramid or a list of (..., D) arrays; leading axes
    (batch, rows, cols) are arbitrary. In train mode the batchnorm uses
    statistics over all locations in the mini-batch; in infer mode it uses
    the running statistics. Returns grids shaped like the input with the
    embedding axis replaced by the projection dim, plus a trace when
    requested (needed for gradients).
    """
    if isinstance(grids, FeaturePyramid):
        grids = list(grids.layers)
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    _check_grids(module, grids)

    outputs = []
    traces = []
    for idx, grid in enumerate(grids):
        p = module.layers[idx]
        lead = grid.shape[:-1]
        x2d = np.ascontiguousarray(grid, dtype=np.float64).reshape(-1, grid.shape[-1])
        h = x2d @ p.w1 + p.b1
        if mode == "train":
            mean = h.mean(axis=0)
            var = h.var(axis=0)
            if update_stats and not module.frozen:
                m = module.bn_momentum
                p.running_mean = (1.0 - m) * p.running_mean + m * mean
                p.running_var = (1.0 - m) * p.running_var + m * var
        else:
            mean = p.running_mean
            var = p.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = (h - mean) * inv_std
        y = p.gamma * x_hat + p.beta
        relu_mask = y > 0.0
        r = np.where(relu_mask, y, 0.0)
        u = r @ p.w2 + p.b2
        if module.normalize:
            norms = np.linalg.norm(u, axis=1)
            bad = norms < _NORM_EPS
            if np.any(bad):
                raise DegenerateProjection(
                    f"{int(bad.sum())} locations collapsed to zero norm at layer {idx}")
            z = u / norms[:, None]
        else:
            norms = None
            z = u
        outputs.append(z.reshape(*lead, z.shape[-1]))
        if with_trace:
            traces.append({
                "lead": lead, "x2d": x2d, "h": h, "mode": mode,
                "inv_std": inv_std, "x_hat": x_hat, "relu_mask": relu_mask,
                "r": r, "u": u, "norms": norms, "z": z,
            })
    if with_trace:
        return outputs, traces
    return outputs


# ---------------------------------------------------------------------------
# sample assignment


@dataclass
class SampleAssignment:
    """Per-layer boolean masks of positive and negative locations.

    Masks share the leading shape of the projected grids ((H, W) for one
    scene, (B, H, W) for a batch) and are always disjoint.
    """

    positive: list[np.ndarray]
    negative: list[np.ndarray]

    @property
    def num_positive(self) -> int:
        return int(sum(m.sum() for m in self.positive))


# ---------------------------------------------------------------------------
# contrastive loss and gradients


def _sample_index(assignment: SampleAssignment, layer: int) -> tuple[np.ndarray, int]:
    """Flat indices of a layer's samples, positives first, and the positive
    count."""
    pos_idx = np.flatnonzero(assignment.positive[layer].ravel())
    neg_idx = np.flatnonzero(assignment.negative[layer].ravel())
    return np.concatenate([pos_idx, neg_idx]), pos_idx.size


def sampled_rows(grids: list[np.ndarray], assignment: SampleAssignment
                 ) -> tuple[list[np.ndarray], SampleAssignment]:
    """Each layer's sampled rows of `grids` as one (n, D) block, in the
    order `_gather_samples` reads them, plus the assignment that marks the
    same samples in those blocks: the first `n_pos` rows are positives."""
    rows, positive = [], []
    for j, grid in enumerate(grids):
        idx, n_pos = _sample_index(assignment, j)
        rows.append(grid.reshape(-1, grid.shape[-1])[idx])
        positive.append(np.arange(idx.size) < n_pos)
    return rows, SampleAssignment(positive=positive, negative=[~m for m in positive])


def _gather_samples(module: MscalModule, projected: list[np.ndarray],
                    assignment: SampleAssignment):
    """Flattened per-layer sample rows and their logits against the layer
    anchor. Returns (per-layer records, positive logits, all logits)."""
    if len(projected) != module.num_layers:
        raise ShapeMismatch("projected grids do not match module layers")
    records = []
    pos_logits = []
    all_logits = []
    for j, grid in enumerate(projected):
        z2d = grid.reshape(-1, grid.shape[-1])
        idx, n_pos = _sample_index(assignment, j)
        z = z2d[idx]
        logits = (z @ module.effective_anchor(j)) / module.tau if idx.size else np.zeros(0)
        records.append({"layer": j, "idx": idx, "n_pos": n_pos, "z": z})
        pos_logits.append(logits[:n_pos])
        all_logits.append(logits)
    return records, np.concatenate(pos_logits), np.concatenate(all_logits)


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + float(np.log(np.sum(np.exp(x - m))))


def mscal_loss(module: MscalModule, projected: list[np.ndarray],
               assignment: SampleAssignment) -> float:
    """Contrastive anchor loss for one class.

    Every positive is scored against its own layer's anchor; the shared
    softmax denominator runs over all sampled locations of all layers, so
    each log argument lies in (0, 1] and the loss is nonnegative.
    """
    _, pos_logits, all_logits = _gather_samples(module, projected, assignment)
    if pos_logits.size == 0:
        raise NoSamples(f"class {module.class_id}: no positive samples in batch")
    return _logsumexp(all_logits) - float(pos_logits.mean())


def mscal_loss_gradients(
    module: MscalModule,
    traces: list[dict],
    assignment: SampleAssignment,
) -> tuple[float, list[dict[str, np.ndarray]]]:
    """Loss value plus analytic gradients for every parameter.

    `traces` must come from a train-mode `project(..., with_trace=True)`
    call; the backward pass routes through the batch statistics and the
    final normalization exactly as the forward computed them.
    """
    projected = [t["z"].reshape(*t["lead"], -1) for t in traces]
    records, pos_logits, all_logits = _gather_samples(module, projected, assignment)
    if pos_logits.size == 0:
        raise NoSamples(f"class {module.class_id}: no positive samples in batch")
    n_pos_total = pos_logits.size
    loss = _logsumexp(all_logits) - float(pos_logits.mean())

    shift = all_logits - np.max(all_logits)
    soft = np.exp(shift)
    soft /= soft.sum()

    grads: list[dict[str, np.ndarray]] = []
    offset = 0
    for rec, trace, params in zip(records, traces, module.layers):
        n = rec["idx"].size
        d_logit = soft[offset:offset + n].copy()
        d_logit[:rec["n_pos"]] -= 1.0 / n_pos_total
        offset += n

        mu_raw = module.layers[0].anchor if module.share_anchor else params.anchor
        mu_eff = module.effective_anchor(rec["layer"])
        # logits = (z . mu_eff) / tau
        d_mu_eff = (d_logit @ rec["z"]) / module.tau if n else np.zeros_like(mu_raw)
        if module.normalize:
            mu_norm = float(np.linalg.norm(mu_raw))
            d_anchor = (d_mu_eff - float(mu_eff @ d_mu_eff) * mu_eff) / mu_norm
        else:
            d_anchor = d_mu_eff

        # spread sample gradients back over the full grid
        dz_rows = np.outer(d_logit, mu_eff) / module.tau if n else np.zeros((0, mu_eff.size))
        dz = np.zeros_like(trace["z"])
        if n:
            dz[rec["idx"]] = dz_rows

        if module.normalize:
            z = trace["z"]
            du = (dz - (np.sum(dz * z, axis=1, keepdims=True)) * z) / trace["norms"][:, None]
        else:
            du = dz

        d_w2 = trace["r"].T @ du
        d_b2 = du.sum(axis=0)
        dr = du @ params.w2.T
        dy = np.where(trace["relu_mask"], dr, 0.0)
        d_gamma = np.sum(dy * trace["x_hat"], axis=0)
        d_beta = dy.sum(axis=0)
        dx_hat = dy * params.gamma
        if trace["mode"] == "train":
            mean_dx_hat = dx_hat.mean(axis=0)
            mean_dx_hat_xhat = np.mean(dx_hat * trace["x_hat"], axis=0)
            dh = trace["inv_std"] * (dx_hat - mean_dx_hat
                                     - trace["x_hat"] * mean_dx_hat_xhat)
        else:
            dh = dx_hat * trace["inv_std"]
        d_w1 = trace["x2d"].T @ dh
        d_b1 = dh.sum(axis=0)

        grads.append({
            "w1": d_w1, "b1": d_b1, "gamma": d_gamma, "beta": d_beta,
            "w2": d_w2, "b2": d_b2, "anchor": d_anchor,
        })
    if module.share_anchor:
        # every layer scored against the first anchor; fold its gradient there
        for g in grads[1:]:
            grads[0]["anchor"] = grads[0]["anchor"] + g["anchor"]
            g["anchor"] = np.zeros_like(g["anchor"])
    return loss, grads


# ---------------------------------------------------------------------------
# OOD scoring


def anchor_similarity_maps(module: MscalModule,
                           pyramid: FeaturePyramid) -> list[np.ndarray]:
    """Infer-mode per-layer grids of anchor similarity for one class."""
    projected = project(module, pyramid, mode="infer")
    return [grid @ module.effective_anchor(j) for j, grid in enumerate(projected)]


def ood_score_map(modules: list[MscalModule], pyramid: FeaturePyramid) -> list[np.ndarray]:
    """Infer-mode per-layer (H, W) grids of OOD scores; higher means more OOD."""
    if not modules:
        raise NoModules("ood_score_map needs at least one class module")
    best: list[np.ndarray] | None = None
    for module in modules:
        sims = anchor_similarity_maps(module, pyramid)
        if best is None:
            best = sims
        else:
            if any(s.shape != b.shape for s, b in zip(sims, best)):
                raise ShapeMismatch("modules disagree on pyramid geometry")
            best = [np.maximum(b, s) for b, s in zip(best, sims)]
    assert best is not None
    return [-b for b in best]


def calibrate_threshold(known_scores, quantile: float = 0.95) -> float:
    """Empirical quantile (linear interpolation) of known-class scores."""
    scores = np.asarray(known_scores, dtype=np.float64).ravel()
    if scores.size == 0:
        raise EmptyScores("threshold calibration needs at least one score")
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {quantile}")
    s = np.sort(scores)
    pos = quantile * (s.size - 1)
    lo = int(np.floor(pos))
    if lo == s.size - 1:
        return float(s[-1])
    frac = pos - lo
    return float(s[lo] + frac * (s[lo + 1] - s[lo]))


def freeze_class_modules(modules: list[MscalModule], up_to_task: int) -> list[MscalModule]:
    """Mark all modules belonging to tasks <= `up_to_task` frozen. Idempotent."""
    for m in modules:
        if m.task_id <= up_to_task:
            m.frozen = True
    return modules


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT = 1

_ARRAY_FIELDS = TRAINED_FIELDS + ("running_mean", "running_var")


def module_to_payload(module: MscalModule) -> dict:
    """JSON-safe dict; float64 values survive a JSON round trip exactly."""
    return {
        "format": CHECKPOINT_FORMAT,
        "class_id": module.class_id,
        "task_id": module.task_id,
        "tau": module.tau,
        "frozen": module.frozen,
        "normalize": module.normalize,
        "share_anchor": module.share_anchor,
        "bn_momentum": module.bn_momentum,
        "layers": [
            {name: getattr(p, name).tolist() for name in _ARRAY_FIELDS}
            for p in module.layers
        ],
    }


def module_from_payload(payload: dict) -> MscalModule:
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"unsupported module checkpoint format {payload.get('format')!r}")
    layers = [
        MscalLayerParams(**{name: np.asarray(rec[name], dtype=np.float64)
                            for name in _ARRAY_FIELDS})
        for rec in payload["layers"]
    ]
    return MscalModule(
        class_id=int(payload["class_id"]),
        task_id=int(payload["task_id"]),
        layers=layers,
        tau=float(payload["tau"]),
        frozen=bool(payload["frozen"]),
        normalize=bool(payload["normalize"]),
        share_anchor=bool(payload.get("share_anchor", False)),
        bn_momentum=float(payload["bn_momentum"]),
    )
