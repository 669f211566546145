"""Desk-scale optimization: binary cross-entropy over cosine logits for the
class embeddings, joint contrastive anchor training, decoupled weight decay,
and the per-task driver with threshold calibration and checkpointing.

Training is single-threaded and fully deterministic per seed: batch
composition, negative subsampling, and module initialization all draw from
labeled streams of the run seed. Only the classes a task trains are sampled
and scored; a frozen class costs the detection loss a count of its pairs.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
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
    fold_modules,
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

    def __post_init__(self):
        for name in ("learning_rate", "batch_size", "tau", "logit_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in [0, 2], got {self.alpha}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must lie in (0, 1), got {self.quantile}")
        # only m in [0, 1] keeps (1 - m) * running_var + m * batch_var nonnegative
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ValueError(f"bn_momentum must lie in [0, 1], got {self.bn_momentum}")
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
    assignments: list[SampleAssignment],
    logit_scale: float,
    total_pairs: int | None = None,
) -> tuple[float, np.ndarray]:
    """Binary cross-entropy over the sampled (location, class) pairs of the
    classes in `embeddings`, summed and divided by `total_pairs`: the pairs
    of every known class, those of classes not scored here (frozen ones)
    included. It defaults to the pairs of `assignments`.

    For class i the sampled locations are its assigned positives (target 1)
    and negatives (target 0); the logit is `logit_scale * cos(w_i, f)`.
    Returns the loss and gradients shaped like `embeddings`.
    """
    if len(assignments) != embeddings.shape[0]:
        raise ShapeMismatch("one sample assignment per embedding row is required")
    if total_pairs is None:
        total_pairs = sum(idx.size for a in assignments for idx in a.index)
    if total_pairs == 0:
        raise NoSamples("detection loss has no assigned locations")
    raw_losses = []
    grads = np.zeros(embeddings.shape)
    for i, a in enumerate(assignments):
        # only the sampled rows are normalized: a row's norm is its own
        blocks = sampled_rows(layer_grids, a)
        rows = np.concatenate(blocks)
        if rows.shape[0] == 0:
            continue
        # the bits of `np.linalg.norm(rows, axis=1, keepdims=True)`
        norms = np.sqrt(np.add.reduce(rows * rows, axis=1, keepdims=True))
        rows /= np.where(norms < 1e-12, 1.0, norms)
        targets = np.zeros(rows.shape[0])
        start = 0
        for b, n in zip(blocks, a.n_pos):
            targets[start:start + n] = 1.0
            start += b.shape[0]
        w = embeddings[i]
        w_norm = math.sqrt(w @ w)
        w_hat = w / w_norm
        logits = logit_scale * (rows @ w_hat)
        # bce(target, logit) = softplus(logit) - target * logit
        raw_losses.append(float(np.add.reduce(_softplus(logits) - targets * logits)))
        d_logit = (_sigmoid(logits) - targets) / total_pairs
        d_w_hat = logit_scale * (d_logit @ rows)
        grads[i] = (d_w_hat - float(w_hat @ d_w_hat) * w_hat) / w_norm
    return sum(raw_losses) / total_pairs, grads


# ---------------------------------------------------------------------------
# sample assignment from box ownership


def _owned_pairs(scenes, geometry: PyramidGeometry,
                 name_to_id: dict[str, int]) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per scene and layer, the (class, cell) pairs that the scene's boxes of
    registered classes own, each pair once, as a `(classes, cells)` pair of
    int64 arrays sorted by class, then cell. Cells of boxes of other classes
    stay background.

    One `PyramidGeometry.owned_cells` call finds the cells of every box of
    the split; each pair becomes one key ordered by scene, layer, class and
    cell, so one sort and one pass over the keys give every scene's
    layers."""
    owner, classes, boxes = [], [], []
    for s, scene in enumerate(scenes):
        for sb in scene.gt:
            if sb.class_name in name_to_id:
                owner.append(s)
                classes.append(name_to_id[sb.class_name])
                boxes.append(sb.box)
    levels, box, cells = geometry.owned_cells(boxes)
    layers = geometry.num_layers
    size = max(g.height * g.width for g in geometry.layers)
    span = (max(classes, default=0) + 1) * size
    block = (np.array(owner, dtype=np.int64) * layers + levels)[box]
    keys = np.unique(block * span + np.array(classes, dtype=np.int64)[box] * size + cells)
    block, pair = np.divmod(keys, span)
    pair_class, pair_cell = np.divmod(pair, size)
    cuts = block.searchsorted(np.arange(len(scenes) * layers + 1)).tolist()
    return [[(pair_class[cuts[b]:cuts[b + 1]], pair_cell[cuts[b]:cuts[b + 1]])
             for b in range(s * layers, (s + 1) * layers)]
            for s in range(len(scenes))]


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
    other = np.ones(owners.foreground.size, dtype=bool)
    other[np.searchsorted(owners.foreground, positive)] = False
    other_idx = owners.foreground[other]
    if other_idx.size > cap:
        other_idx = other_idx[rng.choice(other_idx.size, size=cap, replace=False)]
    quota = cap - other_idx.size
    bg_idx = owners.background if quota > 0 else owners.background[:0]
    if bg_idx.size > quota:
        bg_idx = bg_idx[rng.choice(bg_idx.size, size=quota, replace=False)]
    negative = np.concatenate([other_idx, bg_idx])
    negative.sort()
    # each layer's slice of the positives (p) and of the negatives (q)
    p = [0, *positive.searchsorted(owners.starts[1:]).tolist(), positive.size]
    q = [0, *negative.searchsorted(owners.starts[1:]).tolist(), negative.size]
    return SampleAssignment(
        index=[np.concatenate([positive[p[j]:p[j + 1]], negative[q[j]:q[j + 1]]]) - start
               for j, start in enumerate(owners.starts.tolist())],
        n_pos=[p[j + 1] - p[j] for j in range(len(owners.starts))])


def _sample_count(owners: OwnerIndex, class_id: int, neg_cap: int) -> int:
    """The number of locations `_assignment_for_class` samples for
    `class_id`, found without drawing them: its positives, and negatives up
    to the cap from every other location of the batch."""
    positives = int(np.count_nonzero(owners.classes == class_id))
    others = owners.foreground.size - positives + owners.background.size
    return positives + min(int(neg_cap) * max(1, positives), others)


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

    Running batchnorm statistics start at the statistics of an init batch,
    from its `batch_moments` as in a training step, and each layer anchor
    starts at the class embedding's infer-mode `project`ion, so a fresh
    module is already roughly centered on its class before training.
    """
    have = {m.class_id for m in modules}
    init_scenes = scenes[: min(config.batch_size, len(scenes))]
    moments = None
    if init_scenes:
        moments = batch_moments([np.stack([s.pyramid.layers[j] for s in init_scenes])
                                 for j in range(geometry.num_layers)])
    out = list(modules)
    for class_id, entry in enumerate(registry.entries):
        if class_id in have:
            continue
        rng = derive_rng(config.seed, "module", class_id)
        module = init_module(
            class_id=class_id, task_id=task_id, dim=registry.dim,
            num_layers=geometry.num_layers, rng=rng,
            tau=config.tau, bn_momentum=config.bn_momentum,
        )
        if moments is not None:
            for params, (mean, cov) in zip(module.layers, moments):
                params.running_mean = mean @ params.w1 + params.b1
                params.running_var = np.add.reduce((cov @ params.w1) * params.w1, axis=0)
        emb_grid = [entry.embedding[None, None, :] for _ in range(geometry.num_layers)]
        projected = project(module, emb_grid)
        for j, params in enumerate(module.layers):
            params.anchor = projected[j][0, 0].copy()
        out.append(module)
    return out


def _normalize_anchors(modules: list[MscalModule]) -> None:
    for module in modules:
        for layer in module.layers:
            layer.anchor /= math.sqrt(layer.anchor @ layer.anchor)


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
    loss`, logged per step. Both sum the trained classes' terms only, since
    a frozen class's terms are constants: the detection loss is the BCE of
    the trained classes' sampled pairs over the sampled pairs of every known
    class (a frozen class's sample is counted by `_sample_count`, never
    drawn), and the anchor loss the trained modules' losses over the number
    of known classes. A cal split in which no known class
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
    trainable_idx = [i for i, e in enumerate(registry.entries) if not e.frozen]
    trained = [m for m in modules if not m.frozen]
    # only the classes whose embedding or module trains are sampled; a
    # frozen class adds only its sample count to the detection loss's pairs
    sampled = sorted({*trainable_idx, *(m.class_id for m in trained)})
    # the optimizer sees one flat buffer: the trainable rows, then each trained
    # module's fields, which become views into it; frozen rows stay out of it,
    # since weight decay would shrink them
    fields = [(layer, name) for m in trained for layer in m.layers for name in TRAINED_FIELDS]
    values = [np.stack([e.embedding for e in registry.entries])[trainable_idx]]
    values += [getattr(layer, name) for layer, name in fields]
    sizes = [sum(getattr(layer, name).size for layer in m.layers for name in TRAINED_FIELDS)
             for m in trained]
    flat = np.concatenate([v.ravel() for v in values])
    ends = np.cumsum([v.size for v in values])
    rows, *views = [flat[end - v.size:end].reshape(v.shape) for v, end in zip(values, ends)]
    for (layer, name), view in zip(fields, views):
        setattr(layer, name, view)
    flat_grad = np.zeros_like(flat)
    row_grads = flat_grad[:rows.size].reshape(rows.shape)
    module_grads = np.split(flat_grad[rows.size:], np.cumsum(sizes, dtype=int)[:-1])
    state = init_optimizer_state([flat])
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
        assignments = {
            class_id: _assignment_for_class(
                owners, class_id, config.neg_cap,
                derive_rng(config.seed, "assign", task_id, step, class_id))
            for class_id in sampled}
        total_pairs = sum(_sample_count(owners, class_id, config.neg_cap)
                          for class_id in range(n_classes))

        det_value, det_grads = detection_loss(
            grids, rows, [assignments[i] for i in trainable_idx], config.logit_scale,
            total_pairs)
        np.multiply(det_grads, config.det_weight, out=row_grads)
        con_value = 0.0
        for module, out in zip(trained, module_grads):
            assignment = assignments[module.class_id]
            if assignment.num_positive == 0:
                out[...] = 0.0
                continue
            value, layer_grads, stats = mscal_loss_gradients(module, grids, assignment,
                                                             moments)
            m = module.bn_momentum
            for layer, (mean, var) in zip(module.layers, stats):
                layer.running_mean = (1.0 - m) * layer.running_mean + m * mean
                layer.running_var = (1.0 - m) * layer.running_var + m * var
            con_value += value
            np.concatenate([g[name].ravel() for g in layer_grads for name in TRAINED_FIELDS],
                           out=out)
            out *= scale
        con_value /= n_classes

        adamw_step([flat], [flat_grad], state, config.learning_rate, config.weight_decay)
        _normalize_anchors(trained)

        total = config.det_weight * det_value + config.mscal_weight * con_value
        log.rows.append((step, det_value, con_value, total))

    # one more pass after the last step, even at zero steps: saved anchors
    # carry the rounding of this second normalization
    _normalize_anchors(trained)
    registry = registry.with_embeddings(
        {registry.entries[i].name: row for i, row in zip(trainable_idx, rows)})
    scores = known_positive_scores_for_registry(modules, cal_scenes, cal_pairs)
    log.theta = calibrate_threshold(scores, config.quantile)
    return registry, modules, log


def known_positive_scores_for_registry(modules, scenes, scene_pairs) -> list[float]:
    """OOD scores at every (location, class) pair of `_owned_pairs` over
    `scenes`: the known-positive scores threshold calibration reads, layer
    by layer, each layer's scenes in order.

    Each layer's owned rows of all scenes form one block, and one
    `ood_score_map` call scores the blocks against folds built once per
    call, as the inference gate does. A score can differ from that
    of a whole-grid map in its last bits: the anchor similarity is a gemv,
    whose result for a row depends on where the row falls in the matrix.
    """
    if not modules or not scenes:
        return []
    blocks = [np.concatenate([layer.reshape(-1, layer.shape[-1])[cells]
                              for layer, (_, cells) in zip(layers, pairs)])
              for layers, pairs in zip(zip(*(scene.pyramid.layers for scene in scenes)),
                                       zip(*scene_pairs))]
    return np.concatenate(ood_score_map(fold_modules(modules), blocks)).tolist()


# ---------------------------------------------------------------------------
# checkpoints

REGISTRY_FILE = "registry.json"
THETA_FILE = "theta.json"
CONFIG_FILE = "config.json"
LOG_FILE = "train_log.csv"
MODULE_DIR = "modules"
REGISTRY_FORMAT = 2
# the config key of the SHA-256 of the manifest of the world a task trained on
WORLD_DIGEST_KEY = "world_sha256"


def registry_to_payload(registry: ClassEmbeddingRegistry) -> dict:
    return {
        "format": REGISTRY_FORMAT,
        "entries": [{"name": e.name, "task_id": e.task_id, "embedding": e.embedding.tolist()}
                    for e in registry.entries],
    }


def registry_from_payload(payload: dict) -> ClassEmbeddingRegistry:
    """The registry of a checkpoint's registry file; every entry loads frozen."""
    if payload.get("format") != REGISTRY_FORMAT:
        raise ParseError(f"unsupported registry format {payload.get('format')!r}")
    if not payload["entries"]:
        raise ParseError("registry holds no class")
    return ClassEmbeddingRegistry(entries=tuple(
        ClassEntry(name=e["name"], task_id=int(e["task_id"]), frozen=True,
                   embedding=np.asarray(e["embedding"], dtype=np.float64))
        for e in payload["entries"]))


def save_checkpoint(directory, registry, modules, theta: float,
                    config: TrainConfig, log: TrainLog | None = None,
                    previous=None, unchanged=frozenset(), *, world_digest: str) -> None:
    """Write a checkpoint holding exactly `modules` in one `atomic_directory`
    at `directory`: whole, or not at all and an `UnwritableOutput`.
    `unchanged` names the classes whose modules were loaded from the
    checkpoint at `previous`; their files are copied byte for byte instead
    of re-encoded. `world_digest`, the digest of the world the task trained
    on, is stored beside the config."""
    with atomic_directory(directory) as base:
        (base / MODULE_DIR).mkdir()
        write_json(base / REGISTRY_FILE, registry_to_payload(registry))
        write_json(base / THETA_FILE, {"theta": theta})
        write_json(base / CONFIG_FILE,
                   vars(config) | {"format": 1, WORLD_DIGEST_KEY: world_digest})
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
    OOD threshold of the checkpoint at `directory`; its entries and modules
    are all frozen."""
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
