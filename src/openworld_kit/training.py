"""Desk-scale optimization: binary cross-entropy over cosine logits for the
class embeddings, joint contrastive anchor training, decoupled weight decay,
and the per-task driver with threshold calibration and checkpointing.

Training is single-threaded and fully deterministic per seed: batch
composition, negative subsampling, and module initialization all draw from
labeled streams of the run seed.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .detection import _sigmoid
from .embedding_space import ClassEmbeddingRegistry, ClassEntry
from .errors import (
    EmptyScores,
    MissingCheckpoint,
    NoSamples,
    ParseError,
    ShapeMismatch,
    atomic_directory,
    read_json,
    write_json,
)
from .mscal import (
    MscalModule,
    TRAINED_FIELDS,
    SampleAssignment,
    batch_moments,
    calibrate_threshold,
    freeze_class_modules,
    init_module,
    module_from_payload,
    module_to_payload,
    mscal_loss_gradients,
    ood_score_map,
    project,
    sampled_rows,
)
from .pyramid import PyramidGeometry
from .seeding import derive_rng


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 0.0125
    batch_size: int = 16
    steps_per_task: int = 500
    tau: float = 0.1
    alpha: float = 0.4
    neg_cap: int = 10
    logit_scale: float = 10.0
    quantile: float = 0.95
    seed: int = 0
    det_weight: float = 1.0
    mscal_weight: float = 1.0
    bn_momentum: float = 0.1
    normalize_projection: bool = True
    share_anchor: bool = False

    def __post_init__(self):
        for name in ("learning_rate", "batch_size", "tau", "logit_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in [0, 2], got {self.alpha}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must lie in (0, 1), got {self.quantile}")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.steps_per_task < 0 or self.neg_cap < 0:
            raise ValueError("steps_per_task and neg_cap must be nonnegative")


# ---------------------------------------------------------------------------
# AdamW

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """First/second moment accumulators plus the shared step counter."""

    step: int
    exp_avg: list[np.ndarray]
    exp_avg_sq: list[np.ndarray]


def init_optimizer_state(params: list[np.ndarray]) -> OptimizerState:
    return OptimizerState(
        step=0,
        exp_avg=[np.zeros_like(p) for p in params],
        exp_avg_sq=[np.zeros_like(p) for p in params],
    )


def adamw_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: OptimizerState,
    learning_rate: float,
    weight_decay: float,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> None:
    """One bias-corrected moment update with decoupled weight decay, applied
    in place to `params` and to the moments in `state`.

    The decay term `-lr * wd * theta` is applied separately from the
    gradient step, so zero gradients still shrink parameters by exactly
    (1 - lr * wd) per step.
    """
    state.step += 1
    bias1 = 1.0 - beta1 ** state.step
    bias2 = 1.0 - beta2 ** state.step
    for i, (theta, g, m, v) in enumerate(zip(params, grads, state.exp_avg,
                                             state.exp_avg_sq, strict=True)):
        if g.shape != theta.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != parameter {theta.shape} [{i}]")
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        # factored decay so zero-gradient steps scale by exactly (1 - lr*wd)
        theta[...] = (theta * (1.0 - learning_rate * weight_decay)
                      - learning_rate * m_hat / (np.sqrt(v_hat) + eps))


# ---------------------------------------------------------------------------
# detection loss (classification pathway only)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def detection_loss(
    layer_grids: list[np.ndarray],
    embeddings: np.ndarray,
    trainable: np.ndarray,
    assignments: list[SampleAssignment],
    logit_scale: float,
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over (sampled location, known class) pairs.

    For class i the sampled locations are its assigned positives (target 1)
    and negatives (target 0); the logit is `logit_scale * cos(w_i, f)`.
    Returns the loss and gradients shaped like `embeddings`, zeroed for
    rows where `trainable` is False.
    """
    n_classes = embeddings.shape[0]
    if len(assignments) != n_classes:
        raise ShapeMismatch("one sample assignment per class is required")
    flat = [g.reshape(-1, g.shape[-1]) for g in layer_grids]
    feat_hat = []
    for f in flat:
        norms = np.linalg.norm(f, axis=1, keepdims=True)
        feat_hat.append(f / np.where(norms < 1e-12, 1.0, norms))

    total_pairs = 0
    raw_losses = []
    per_class_rows = []
    for a in assignments:
        blocks, compact = sampled_rows(feat_hat, a)
        rows = np.concatenate(blocks)
        targets = np.concatenate([idx < n for idx, n in zip(compact.index, compact.n_pos)])
        per_class_rows.append((rows, targets.astype(np.float64)))
        total_pairs += rows.shape[0]
    if total_pairs == 0:
        raise NoSamples("detection loss has no assigned locations")

    loss = 0.0
    grads = np.zeros_like(embeddings)
    for i, (rows, targets) in enumerate(per_class_rows):
        if rows.shape[0] == 0:
            continue
        w = embeddings[i]
        w_norm = float(np.linalg.norm(w))
        w_hat = w / w_norm
        logits = logit_scale * (rows @ w_hat)
        # bce(target, logit) = softplus(logit) - target * logit
        raw_losses.append(float(np.sum(_softplus(logits) - targets * logits)))
        if trainable[i]:
            d_logit = (_sigmoid(logits) - targets) / total_pairs
            d_w_hat = logit_scale * (d_logit @ rows)
            grads[i] = (d_w_hat - float(w_hat @ d_w_hat) * w_hat) / w_norm
    loss = sum(raw_losses) / total_pairs
    return loss, grads


# ---------------------------------------------------------------------------
# sample assignment from box ownership


def _owned_pairs(scenes, geometry: PyramidGeometry,
                 name_to_id: dict[str, int]) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per scene and layer, the (class, cell) pairs that the scene's boxes of
    registered classes own (`PyramidGeometry.owned_cells`), each pair once.
    Cells of boxes of other classes stay background."""
    sizes = [g.height * g.width for g in geometry.layers]
    out = []
    for scene in scenes:
        keys = [[np.empty(0, dtype=np.int64)] for _ in sizes]
        for sb in scene.gt:
            if sb.class_name in name_to_id:
                level, cells = geometry.owned_cells(sb.box)
                keys[level].append(name_to_id[sb.class_name] * sizes[level] + cells)
        out.append([np.divmod(np.unique(np.concatenate(k)), size)
                    for k, size in zip(keys, sizes)])
    return out


@dataclass(frozen=True)
class OwnerIndex:
    """Box ownership over a batch of scenes, in one flat layout: layer, then
    scene, then row-major cell. `starts` holds each layer's first flat
    index; `foreground` lists the locations some registered class owns and
    `background` the rest, both ascending; `cells` and `classes` list each
    (location, class) pair."""

    starts: np.ndarray
    foreground: np.ndarray
    background: np.ndarray
    cells: np.ndarray
    classes: np.ndarray


def _owner_index(batch_pairs, geometry: PyramidGeometry) -> OwnerIndex:
    """The `OwnerIndex` of a batch, from each scene's `_owned_pairs`."""
    cells, classes, starts = [], [], []
    offset = 0
    for j, g in enumerate(geometry.layers):
        starts.append(offset)
        for pairs in batch_pairs:
            classes.append(pairs[j][0])
            cells.append(offset + pairs[j][1])
            offset += g.height * g.width
    cells = np.concatenate(cells)
    owned = np.zeros(offset, dtype=bool)
    owned[cells] = True
    return OwnerIndex(np.array(starts), np.flatnonzero(owned), np.flatnonzero(~owned),
                      cells, np.concatenate(classes))


def _assignment_for_class(owners: OwnerIndex, class_id: int, neg_cap: int,
                          rng: np.random.Generator) -> SampleAssignment:
    """Batched positive/negative assignment for one class.

    Positives are locations owned by `class_id`. Locations owned by any
    other class are negatives; background fills the remaining negative
    quota of `neg_cap * max(1, positives)` by uniform subsampling.
    """
    # ascending and unique: `_owned_pairs` sorts each scene's layer pairs by
    # (class, cell), and `_owner_index` lays the blocks out at rising offsets
    positive = owners.cells[owners.classes == class_id]
    cap = int(neg_cap) * max(1, positive.size)
    other_idx = np.setdiff1d(owners.foreground, positive, assume_unique=True)
    if other_idx.size > cap:
        other_idx = other_idx[rng.choice(other_idx.size, size=cap, replace=False)]
    quota = cap - other_idx.size
    bg_idx = owners.background if quota > 0 else owners.background[:0]
    if bg_idx.size > quota:
        bg_idx = bg_idx[rng.choice(bg_idx.size, size=quota, replace=False)]
    negative = np.sort(np.concatenate([other_idx, bg_idx]))
    cuts = owners.starts[1:]
    pos_layers = np.split(positive, np.searchsorted(positive, cuts))
    neg_layers = np.split(negative, np.searchsorted(negative, cuts))
    return SampleAssignment(
        index=[np.concatenate([pos, neg]) - start
               for pos, neg, start in zip(pos_layers, neg_layers, owners.starts)],
        n_pos=[pos.size for pos in pos_layers])


# ---------------------------------------------------------------------------
# task training


@dataclass
class TrainLog:
    """Per-step losses plus the calibrated OOD threshold."""

    rows: list[tuple[int, float, float, float]] = field(default_factory=list)
    theta: float = float("inf")


TRAIN_LOG_HEADER = "step,det_loss,mscal_loss,total"


def write_train_log_csv(path, log: TrainLog) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRAIN_LOG_HEADER + "\n")
        for step, det, con, total in log.rows:
            fh.write(f"{step},{det!r},{con!r},{total!r}\n")


def _init_modules_for_task(
    registry: ClassEmbeddingRegistry,
    modules: list[MscalModule],
    scenes,
    geometry: PyramidGeometry,
    config: TrainConfig,
    task_id: int,
) -> list[MscalModule]:
    """Create modules for classes that lack one, with data-dependent init.

    Running batchnorm statistics start at the statistics of an init batch
    and each layer anchor starts at the projected class embedding, so a
    fresh module is already roughly centered on its class before training.
    """
    have = {m.class_id for m in modules}
    init_scenes = scenes[: min(config.batch_size, len(scenes))]
    stacked = None
    if init_scenes:
        stacked = [np.stack([s.pyramid.layers[j] for s in init_scenes])
                   for j in range(geometry.num_layers)]
    out = list(modules)
    for class_id, entry in enumerate(registry.entries):
        if class_id in have:
            continue
        rng = derive_rng(config.seed, "module", class_id)
        module = init_module(
            class_id=class_id, task_id=task_id, dim=registry.dim,
            num_layers=geometry.num_layers, rng=rng,
            tau=config.tau, normalize=config.normalize_projection,
            share_anchor=config.share_anchor, bn_momentum=config.bn_momentum,
        )
        if stacked is not None:
            for j, params in enumerate(module.layers):
                h = stacked[j].reshape(-1, registry.dim) @ params.w1 + params.b1
                params.running_mean = h.mean(axis=0)
                params.running_var = h.var(axis=0)
        emb_grid = [entry.embedding[None, None, :] for _ in range(geometry.num_layers)]
        projected = project(module, emb_grid)
        for j, params in enumerate(module.layers):
            params.anchor = projected[j][0, 0].copy()
        out.append(module)
    return out


def _normalize_anchors(modules: list[MscalModule]) -> None:
    for module in modules:
        if module.normalize:
            for layer in module.layers:
                layer.anchor /= np.linalg.norm(layer.anchor)


def train_task(
    world_data,
    registry: ClassEmbeddingRegistry,
    modules: list[MscalModule],
    config: TrainConfig,
    task_id: int,
) -> tuple[ClassEmbeddingRegistry, list[MscalModule], TrainLog]:
    """Run one task's optimization and calibrate the OOD threshold.

    `world_data` provides `geometry`, `train_scenes`, and `cal_scenes`;
    scenes expose a pyramid and ground-truth boxes with class names.
    Ground truth for classes missing from the registry (future tasks,
    never-introduced classes) is ignored, leaving their locations as
    background. Only unfrozen embeddings and modules receive
    updates; the loss is `det_weight * detection + mscal_weight * anchor
    loss`, logged per step, where the anchor loss sums the trained modules'
    losses over the number of known classes (a frozen module's loss is a
    constant, so it is not computed). A cal split in which no known class
    owns a location gives no score to calibrate on and raises `EmptyScores`.
    """
    geometry = world_data.geometry
    train_scenes = list(world_data.train_scenes)
    cal_scenes = list(world_data.cal_scenes)
    if registry.current_task != task_id:
        raise ValueError(f"registry is at task {registry.current_task}, expected {task_id}")
    if config.steps_per_task and not train_scenes:
        raise NoSamples(f"{config.steps_per_task} training steps need a train scene; "
                        f"the split has none")

    modules = _init_modules_for_task(registry, modules, train_scenes, geometry,
                                     config, task_id)
    modules = sorted(modules, key=lambda m: m.class_id)
    name_to_id = {e.name: i for i, e in enumerate(registry.entries)}

    train_pairs = _owned_pairs(train_scenes, geometry, name_to_id)
    cal_pairs = _owned_pairs(cal_scenes, geometry, name_to_id)
    if not any(cells.size for layers in cal_pairs for _, cells in layers):
        raise EmptyScores(f"task {task_id}: no location of the cal split is owned by a "
                          f"known class, so theta cannot be calibrated")

    n_classes = registry.num_known
    trainable_rows = np.array([not e.frozen for e in registry.entries])
    trainable_idx = np.flatnonzero(trainable_rows)
    # one stacked copy per task keeps the caller's entries untouched; the
    # optimizer updates the trainable rows in place through row views
    embeddings = np.stack([e.embedding for e in registry.entries])
    trained = [m for m in modules if not m.frozen]
    params = [embeddings[i] for i in trainable_idx]
    params += [getattr(layer, name) for m in trained for layer in m.layers
               for name in TRAINED_FIELDS]
    state = init_optimizer_state(params)
    scale = config.mscal_weight / n_classes
    log = TrainLog()

    for step in range(config.steps_per_task):
        batch_rng = derive_rng(config.seed, "batch", task_id, step)
        idx = batch_rng.integers(0, len(train_scenes), size=config.batch_size)
        batch_scenes = [train_scenes[i] for i in idx]
        grids = [np.stack([s.pyramid.layers[j] for s in batch_scenes])
                 for j in range(geometry.num_layers)]
        moments = batch_moments(grids)
        owners = _owner_index([train_pairs[i] for i in idx], geometry)
        assignments = [
            _assignment_for_class(owners, class_id, config.neg_cap,
                                  derive_rng(config.seed, "assign", task_id, step, class_id))
            for class_id in range(n_classes)]

        det_value, det_grads = detection_loss(
            grids, embeddings, trainable_rows, assignments, config.logit_scale)

        # gradients line up with `params`: rows first, then modules in class order
        grads = [config.det_weight * det_grads[i] for i in trainable_idx]
        con_value = 0.0
        for module in trained:
            assignment = assignments[module.class_id]
            if assignment.num_positive == 0:
                grads += [np.zeros_like(getattr(layer, name))
                          for layer in module.layers for name in TRAINED_FIELDS]
                continue
            value, layer_grads, stats = mscal_loss_gradients(module, grids, assignment,
                                                             moments)
            m = module.bn_momentum
            for layer, (mean, var) in zip(module.layers, stats):
                layer.running_mean = (1.0 - m) * layer.running_mean + m * mean
                layer.running_var = (1.0 - m) * layer.running_var + m * var
            con_value += value
            grads += [scale * g[name] for g in layer_grads for name in TRAINED_FIELDS]
        con_value /= n_classes

        adamw_step(params, grads, state, config.learning_rate, config.weight_decay)
        _normalize_anchors(trained)

        total = config.det_weight * det_value + config.mscal_weight * con_value
        log.rows.append((step, det_value, con_value, total))

    # one more pass after the last step, even at zero steps: saved anchors
    # carry the rounding of this second normalization
    _normalize_anchors(trained)
    registry = registry.with_embeddings(
        {registry.entries[i].name: embeddings[i] for i in trainable_idx})
    scores = known_positive_scores_for_registry(modules, cal_scenes, cal_pairs)
    log.theta = calibrate_threshold(scores, config.quantile)
    return registry, modules, log


def known_positive_scores_for_registry(modules, scenes, scene_pairs) -> list[float]:
    """OOD scores at every (location, class) pair of `_owned_pairs` over
    `scenes`: the known-positive scores threshold calibration reads, layer
    by layer, each layer's scenes in order.

    Each layer's owned rows of all scenes form one block, and one
    `ood_score_map` call scores the blocks. A score can differ from that of
    a whole-grid map in its last bits: the anchor similarity is a gemv,
    whose result for a row depends on where the row falls in the matrix.
    """
    if not modules or not scenes:
        return []
    blocks = [np.concatenate([layer.reshape(-1, layer.shape[-1])[cells]
                              for layer, (_, cells) in zip(layers, pairs)])
              for layers, pairs in zip(zip(*(scene.pyramid.layers for scene in scenes)),
                                       zip(*scene_pairs))]
    return np.concatenate(ood_score_map(modules, blocks)).tolist()


def finalize_task(registry: ClassEmbeddingRegistry, modules: list[MscalModule],
                  task_id: int) -> tuple[ClassEmbeddingRegistry, list[MscalModule]]:
    """Freeze everything a finished task produced.

    Checkpoints are immutable task-boundary artifacts, so entries and
    modules are stored frozen; this keeps a class's checkpoint file
    byte-identical across all later tasks.
    """
    entries = tuple(replace(e, frozen=True) for e in registry.entries)
    registry = replace(registry, entries=entries)
    freeze_class_modules(modules, task_id)
    return registry, modules


# ---------------------------------------------------------------------------
# checkpoints

REGISTRY_FILE = "registry.json"
THETA_FILE = "theta.json"
CONFIG_FILE = "config.json"
LOG_FILE = "train_log.csv"
MODULE_DIR = "modules"


def registry_to_payload(registry: ClassEmbeddingRegistry) -> dict:
    return {
        "format": 1,
        "alpha": registry.alpha,
        "generic_object": registry.generic_object.tolist(),
        "entries": [
            {"name": e.name, "task_id": e.task_id, "frozen": e.frozen,
             "embedding": e.embedding.tolist()}
            for e in registry.entries
        ],
    }


def registry_from_payload(payload: dict) -> ClassEmbeddingRegistry:
    entries = tuple(
        ClassEntry(name=e["name"], task_id=int(e["task_id"]), frozen=bool(e["frozen"]),
                   embedding=np.asarray(e["embedding"], dtype=np.float64))
        for e in payload["entries"]
    )
    return ClassEmbeddingRegistry(
        entries=entries,
        generic_object=np.asarray(payload["generic_object"], dtype=np.float64),
        alpha=float(payload["alpha"]),
    )


def save_checkpoint(directory, registry, modules, theta: float,
                    config: TrainConfig, log: TrainLog | None = None,
                    previous=None, unchanged=frozenset()) -> None:
    """Write a checkpoint holding exactly `modules`, whole or not at all: the
    files go into a fresh directory that then replaces `directory`.
    `unchanged` names the classes whose modules were loaded frozen from the
    checkpoint at `previous` and never trained since; their files are
    copied byte for byte instead of re-encoded."""
    with atomic_directory(directory) as base:
        (base / MODULE_DIR).mkdir()
        write_json(base / REGISTRY_FILE, registry_to_payload(registry))
        write_json(base / THETA_FILE, {"theta": theta})
        write_json(base / CONFIG_FILE, vars(config) | {"format": 1})
        for module in modules:
            name = f"class_{module.class_id:03d}.json"
            if module.class_id in unchanged:
                shutil.copyfile(Path(previous) / MODULE_DIR / name, base / MODULE_DIR / name)
            else:
                write_json(base / MODULE_DIR / name, module_to_payload(module))
        if log is not None:
            write_train_log_csv(base / LOG_FILE, log)


def load_checkpoint(directory) -> tuple[ClassEmbeddingRegistry, list[MscalModule], float]:
    """The registry, one module per registry entry in class order, and the
    OOD threshold of the checkpoint at `directory`."""
    base = Path(directory)
    if not (base / REGISTRY_FILE).exists():
        raise MissingCheckpoint(f"no checkpoint at {base}")
    if not (base / THETA_FILE).exists():
        raise MissingCheckpoint(f"incomplete checkpoint: {base / THETA_FILE} missing")
    registry = read_json(base / REGISTRY_FILE, "checkpoint file", registry_from_payload)
    theta = read_json(base / THETA_FILE, "checkpoint file",
                      lambda payload: float(payload["theta"]))
    modules = []
    for class_id in range(registry.num_known):
        path = base / MODULE_DIR / f"class_{class_id:03d}.json"
        module = read_json(path, "checkpoint file", module_from_payload, missing=MissingCheckpoint)
        if module.class_id != class_id:
            raise ParseError(f"bad checkpoint file: holds class {module.class_id}, "
                             f"not {class_id}", path=str(path))
        modules.append(module)
    return registry, modules, theta
