"""Per-class contrastive anchor modules over feature pyramids.

Each known class owns a small per-layer projector (affine -> batchnorm ->
ReLU -> affine -> L2 normalization) and a per-layer unit anchor.
Training pulls projected positives onto the class anchor and pushes
other-class and sampled background locations away, under one softmax over
the samples of every layer. At inference the negated best anchor similarity
at a location is its out-of-distribution score: locations outside every
known-class cluster score high. Infer mode runs each layer's `_fold` (the
running-statistics batchnorm taken into the first affine map) through
`_folded_forward`: `project`, which anchor initialization calls, normalizes
its output, and `ood_score_map`, which threshold calibration and the
inference gate read, scores it against the unit anchors of `fold_modules`.

A training step projects only a module's sampled locations: train-mode
batchnorm statistics follow from per-layer batch moments that every class
shares. All gradients are computed analytically, including the coupling
through those batch statistics and through the final normalization; tests
verify them against central finite differences.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

from .embedding_space import normalize
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
    outputs forever after. Projected vectors and anchors are
    unit-normalized before every inner product, and anchors are
    re-normalized after each optimizer step.
    """

    class_id: int
    task_id: int
    layers: list[MscalLayerParams]
    tau: float = 0.1
    frozen: bool = False
    bn_momentum: float = 0.1

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def in_dim(self) -> int:
        return int(self.layers[0].w1.shape[0])

    def effective_anchor(self, layer: int) -> np.ndarray:
        mu = self.layers[layer].anchor
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
            anchor=normalize(rng.normal(size=dz)),
        ))
    return MscalModule(class_id=class_id, task_id=task_id, layers=layers, tau=tau,
                       bn_momentum=bn_momentum)


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


def _fold(p: MscalLayerParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One layer's infer-mode maps `(w1 * s, (b1 - running_mean) * s + beta,
    w2, b2)`: the running-statistics batchnorm folded into the first affine
    map with `s = gamma / sqrt(running_var + eps)`."""
    scale = p.gamma / np.sqrt(p.running_var + BN_EPS)
    return p.w1 * scale, (p.b1 - p.running_mean) * scale + p.beta, p.w2, p.b2


def _folded_forward(x2d: np.ndarray, fold) -> np.ndarray:
    """The second affine map's output for the (n, D) rows `x2d` through one
    layer's `_fold`."""
    a1, c1, w2, b2 = fold
    h = x2d @ a1
    h += c1
    np.maximum(h, 0.0, out=h)
    u = h @ w2
    u += b2
    return u


def _row_norms(u: np.ndarray, layer: int) -> np.ndarray:
    """The row norms of the second affine map's output `u` at `layer`; a row
    of zero norm has no direction to normalize."""
    # the bits of `np.linalg.norm(u, axis=1)`, without its call overhead
    norms = np.sqrt(np.add.reduce(u * u, axis=1))
    bad = norms < _NORM_EPS
    if bad.any():
        raise DegenerateProjection(
            f"{int(bad.sum())} locations collapsed to zero norm at layer {layer}")
    return norms


def project(module: MscalModule, grids: list[np.ndarray] | FeaturePyramid) -> list[np.ndarray]:
    """Map every pyramid location into the module's class space, with the
    batchnorm on its running statistics, through the layers' `_fold`s.

    `grids` is a FeaturePyramid or a list of (..., D) arrays; leading axes
    (batch, rows, cols) are arbitrary. Returns grids shaped like the input
    with the embedding axis replaced by the projection dim. Training reads
    batch statistics instead, through `mscal_loss_gradients`.
    """
    if isinstance(grids, FeaturePyramid):
        grids = list(grids.layers)
    _check_grids(module, grids)
    outputs = []
    for j, (grid, p) in enumerate(zip(grids, module.layers)):
        x2d = np.ascontiguousarray(grid, dtype=np.float64).reshape(-1, grid.shape[-1])
        u = _folded_forward(x2d, _fold(p))
        u /= _row_norms(u, j)[:, None]
        outputs.append(u.reshape(*grid.shape[:-1], u.shape[-1]))
    return outputs


# ---------------------------------------------------------------------------
# sample assignment


@dataclass
class SampleAssignment:
    """Per-layer sampled locations as flat indices into the layer's
    projected grid, its leading axes ((H, W) for one scene, (B, H, W) for a
    batch) flattened row-major.

    `index[j]` lists layer j's positives in ascending order, then its
    negatives in ascending order, with no index twice; its first `n_pos[j]`
    entries are the positives.
    """

    index: list[np.ndarray]
    n_pos: list[int]

    @property
    def num_positive(self) -> int:
        return int(sum(self.n_pos))


# ---------------------------------------------------------------------------
# contrastive loss and gradients


def sampled_rows(grids: list[np.ndarray], assignment: SampleAssignment) -> list[np.ndarray]:
    """Each layer's sampled rows of `grids` as one (n, D) block, in the
    order of `assignment.index`: block j's first `assignment.n_pos[j]` rows
    are its positives."""
    return [grid.reshape(-1, grid.shape[-1])[idx]
            for grid, idx in zip(grids, assignment.index)]


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
    if len(projected) != module.num_layers:
        raise ShapeMismatch("projected grids do not match module layers")
    logits = [(z @ module.effective_anchor(j)) / module.tau
              for j, z in enumerate(sampled_rows(projected, assignment))]
    pos_logits = np.concatenate([lg[:n] for lg, n in zip(logits, assignment.n_pos)])
    if pos_logits.size == 0:
        raise NoSamples(f"class {module.class_id}: no positive samples in batch")
    return _logsumexp(np.concatenate(logits)) - float(pos_logits.mean())


def batch_moments(grids: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per layer, the mean and population covariance of a batch's rows.

    Train-mode batchnorm ties a row to the rest of its batch only through
    the batch mean and variance of the first affine map's output, and those
    follow from these input moments for any module, so one step computes
    them once for every class.
    """
    moments = []
    for grid in grids:
        x = grid.reshape(-1, grid.shape[-1])
        mean = x.mean(axis=0)
        centered = x - mean
        moments.append((mean, centered.T @ centered / x.shape[0]))
    return moments


def mscal_loss_gradients(
    module: MscalModule,
    grids: list[np.ndarray],
    assignment: SampleAssignment,
    moments: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[float, list[dict[str, np.ndarray]], list[tuple[np.ndarray, np.ndarray]]]:
    """One train-mode step of a module on its sampled rows of the batch
    `grids`, whose `batch_moments` are `moments`.

    Returns the loss, the analytic gradient of every trained field and, per
    layer, the batch (mean, variance) of the first affine map's output that
    the running statistics move towards. The loss is that of a full-batch
    train-mode projection: with `mu` and `cov` the batch moments, the
    batchnorm mean is `mu @ w1 + b1` and its variance `diag(w1' cov w1)`,
    so only the sampled rows are projected. Back-propagated through those
    statistics, the batch contributes to `d_w1` only through the moments,
    and `d_b1` is exactly zero: a shift of every row by `b1` leaves the
    normalized rows unchanged.
    """
    _check_grids(module, grids)
    forward, logits, stats = [], [], []
    for j, (x, (mean, cov)) in enumerate(zip(sampled_rows(grids, assignment), moments,
                                             strict=True)):
        p = module.layers[j]
        cov_w1 = cov @ p.w1
        var = np.sum(cov_w1 * p.w1, axis=0)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        centered = x - mean
        x_hat = (centered @ p.w1) * inv_std
        y = p.gamma * x_hat + p.beta
        relu_mask = y > 0.0
        r = np.where(relu_mask, y, 0.0)
        u = r @ p.w2 + p.b2
        norms = _row_norms(u, j)
        z = u / norms[:, None]
        mu_eff = module.effective_anchor(j)
        logits.append((z @ mu_eff) / module.tau)
        forward.append((centered, cov_w1, inv_std, x_hat, relu_mask, r, norms, z, mu_eff))
        stats.append((mean @ p.w1 + p.b1, var))
    pos_logits = np.concatenate([lg[:n] for lg, n in zip(logits, assignment.n_pos)])
    if pos_logits.size == 0:
        raise NoSamples(f"class {module.class_id}: no positive samples in batch")
    n_pos_total = pos_logits.size
    all_logits = np.concatenate(logits)
    loss = _logsumexp(all_logits) - float(pos_logits.mean())

    shift = all_logits - np.max(all_logits)
    soft = np.exp(shift)
    soft /= soft.sum()

    grads: list[dict[str, np.ndarray]] = []
    offset = 0
    for fwd, n_pos, params in zip(forward, assignment.n_pos, module.layers):
        centered, cov_w1, inv_std, x_hat, relu_mask, r, norms, z, mu_eff = fwd
        n = z.shape[0]
        d_logit = soft[offset:offset + n].copy()
        d_logit[:n_pos] -= 1.0 / n_pos_total
        offset += n

        # logits = (z . mu_eff) / tau, with mu_eff the unit `params.anchor`
        d_mu_eff = (d_logit @ z) / module.tau
        mu_norm = float(np.linalg.norm(params.anchor))
        d_anchor = (d_mu_eff - float(mu_eff @ d_mu_eff) * mu_eff) / mu_norm

        dz = np.outer(d_logit, mu_eff) / module.tau
        du = (dz - (np.sum(dz * z, axis=1, keepdims=True)) * z) / norms[:, None]

        d_w2 = r.T @ du
        d_b2 = du.sum(axis=0)
        dy = np.where(relu_mask, du @ params.w2.T, 0.0)
        d_gamma = np.sum(dy * x_hat, axis=0)
        d_beta = dy.sum(axis=0)
        # through the batch statistics: d_h = inv_std * (g - mean(g) - x_hat *
        # mean(g * x_hat)) over all batch rows, zero outside the samples, and
        # the batch sums of x and of x * x_hat are the moments
        g = dy * params.gamma
        d_w1 = (centered.T @ g - cov_w1 * (inv_std * np.sum(g * x_hat, axis=0))) * inv_std

        grads.append({
            "w1": d_w1, "b1": np.zeros_like(params.b1), "gamma": d_gamma, "beta": d_beta,
            "w2": d_w2, "b2": d_b2, "anchor": d_anchor,
        })
    return loss, grads, stats


# ---------------------------------------------------------------------------
# OOD scoring


def fold_modules(modules: list[MscalModule]) -> list[tuple[MscalModule, list[tuple]]]:
    """Each module with its infer-mode fold, in the order of `modules`: per
    layer the four maps of `_fold` and the `effective_anchor`. A fold holds
    while its module does not change."""
    return [(module, [_fold(p) + (module.effective_anchor(j),)
                      for j, p in enumerate(module.layers)])
            for module in modules]


def ood_score_map(folds: list[tuple[MscalModule, list[tuple]]],
                  pyramid: FeaturePyramid | list[np.ndarray]) -> list[np.ndarray]:
    """Per-layer grids of OOD scores from `fold_modules`'s `folds`, shaped
    like the pyramid's layers without the embedding axis: the best anchor
    similarity over the folds, in order, negated. A module's similarity is
    `(u @ anchor) / |u|` for the second affine map's output `u`: that of
    `project`'s rows (`u / |u|`) to `effective_anchor` up to rounding.
    Threshold calibration and the inference gate both score through here."""
    if not folds:
        raise NoModules("ood_score_map needs at least one class module")
    grids = pyramid.layers if isinstance(pyramid, FeaturePyramid) else pyramid
    for module, _ in folds:
        _check_grids(module, grids)
    scores = []
    for j, grid in enumerate(grids):
        x2d = np.ascontiguousarray(grid, dtype=np.float64).reshape(-1, grid.shape[-1])
        best = None
        for _, layers in folds:
            *fold, anchor = layers[j]
            u = _folded_forward(x2d, fold)
            sim = u @ anchor
            sim /= _row_norms(u, j)
            best = sim if best is None else np.maximum(best, sim, out=best)
        scores.append(np.negative(best, out=best).reshape(grid.shape[:-1]))
    return scores


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


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT = 5

_ARRAY_FIELDS = TRAINED_FIELDS + ("running_mean", "running_var")


def _encode_array(a: np.ndarray) -> dict:
    """`a` as its shape and its exact little-endian float64 bytes in base64."""
    data = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "data": base64.b64encode(data).decode("ascii")}


def _decode_array(record: dict, where: str) -> np.ndarray:
    """The writable native float64 array `_encode_array` wrote as `record`."""
    shape = record["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ParseError(f"{where}: bad shape {shape!r}")
    try:
        data = base64.b64decode(record["data"], validate=True)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad base64 data ({exc})") from exc
    if len(data) != 8 * math.prod(shape):
        raise ParseError(f"{where}: {len(data)} bytes of data, but shape {shape} "
                         f"holds {8 * math.prod(shape)}")
    return np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)


def _layers_from_payload(records: list) -> list[MscalLayerParams]:
    """Every layer's arrays, whose shapes must all follow from the first
    layer's w1 (D, Dh) and w2 (Dh, Dz), whose values must be finite, and
    whose running variances must not be negative."""
    layers = [{name: _decode_array(rec[name], f"layer {i} field {name}")
               for name in _ARRAY_FIELDS} for i, rec in enumerate(records)]
    if not layers:
        raise ParseError("module has no layers")
    w1, w2 = layers[0]["w1"], layers[0]["w2"]
    if w1.ndim != 2 or w2.ndim != 2 or w1.shape[1] != w2.shape[0]:
        raise ParseError(f"layer 0 fields w1 {list(w1.shape)} and w2 {list(w2.shape)} "
                         f"are not (D, Dh) and (Dh, Dz)")
    (d, dh), dz = w1.shape, w2.shape[1]
    expected = {"w1": (d, dh), "w2": (dh, dz), "b2": (dz,), "anchor": (dz,)}
    for i, fields in enumerate(layers):
        for name, a in fields.items():
            want = expected.get(name, (dh,))
            if a.shape != want:
                raise ParseError(f"layer {i} field {name} has shape {list(a.shape)}, "
                                 f"not {list(want)}")
            if not np.isfinite(a).all():
                raise ParseError(f"layer {i} field {name} holds a non-finite value")
        if np.any(fields["running_var"] < 0.0):
            raise ParseError(f"layer {i} field running_var holds a negative variance")
    return [MscalLayerParams(**fields) for fields in layers]


def module_to_payload(module: MscalModule) -> dict:
    """JSON-safe dict; every array is stored as its exact float64 bytes."""
    return {
        "format": CHECKPOINT_FORMAT,
        "class_id": module.class_id,
        "task_id": module.task_id,
        "tau": module.tau,
        "bn_momentum": module.bn_momentum,
        "layers": [
            {name: _encode_array(getattr(p, name)) for name in _ARRAY_FIELDS}
            for p in module.layers
        ],
    }


def module_from_payload(payload: dict) -> MscalModule:
    """The module of a checkpoint's module file, which loads frozen."""
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"unsupported module checkpoint format {payload.get('format')!r}")
    layers = _layers_from_payload(payload["layers"])
    module = MscalModule(
        class_id=int(payload["class_id"]),
        task_id=int(payload["task_id"]),
        layers=layers,
        tau=float(payload["tau"]),
        frozen=True,
        bn_momentum=float(payload["bn_momentum"]),
    )
    try:  # scoring needs every anchor it reads as a unit; an overflowing norm is inf
        with np.errstate(over="ignore"):
            for j in range(module.num_layers):
                module.effective_anchor(j)
    except ZeroVector as exc:
        raise ParseError(str(exc)) from exc
    return module
