"""Deterministic generator of desk-scale open-world detection problems.

A world is a set of class prototypes on the unit hypersphere: known classes
spread over a ring around a hidden axis, near-OOD classes placed a fixed
small angle from designated known partners, and far-OOD classes clustered
well away from every known class. Scenes are feature pyramids whose
foreground locations carry noisy copies of the owning prototype and whose
background stays dissimilar to every prototype. Never-introduced classes
appear in train/cal scenes as unlabeled foreground, mirroring open-world
data where unknowns are present but unannotated.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .detection import _record_line
from .embedding_space import (GENERIC_OBJECT_KEY, load_embedding_file, normalize,
                              pseudo_unknown_embedding, save_embedding_file)
from .errors import (InfeasibleSpec, MissingInput, MissingWorld, ParseError, read_json,
                     write_json)
from .owod_eval import GtRecord, TaskSplitSpec, read_gt_jsonl, save_task_split, write_gt_jsonl
from .parallel import ordered_map
from .pyramid import (
    FeaturePyramid,
    LayerGeometry,
    PyramidGeometry,
    read_pyramid_blob,
    write_pyramid_blob,
)
from .seeding import derive_rng

KIND_KNOWN = "known"
KIND_NOOD = "nood"
KIND_FOOD = "food"

MANIFEST_NAME = "manifest.json"
EMBEDDINGS_NAME = "embeddings.json"
TASK_SPLIT_NAME = "task_split.json"


@dataclass(frozen=True)
class WorldSpec:
    """Geometry and content of a synthetic world."""

    dim: int = 16
    known_per_task: tuple[int, ...] = (5, 5, 5)
    n_nood: int = 4
    n_food: int = 4
    nood_angle: float = 0.25
    food_min_angle: float = 1.2
    noise_sigma: float = 0.1
    text_noise_sigma: float = 0.05
    pyramid_layers: tuple[tuple[int, int, float], ...] = ((16, 16, 16.0), (8, 8, 32.0))
    level_thresholds: tuple[float, ...] = (0.0, 64.0)
    box_size_ranges: tuple[tuple[float, float], ...] = ((20.0, 56.0), (72.0, 150.0))
    boxes_per_scene: tuple[int, ...] = (3, 6)
    scenes_per_split: tuple[tuple[str, int], ...] = (("train", 60), ("cal", 20), ("test", 40))
    unknown_box_ratio: float = 0.3
    box_jitter: float = 0.0
    background_max_cos: float = 0.3
    # ring/cluster shaping for the prototype construction
    known_angle_range: tuple[float, float] = (1.05, 1.3)
    food_axis_angle: float = 1.55
    food_spread: float = 0.2
    foodward_cap: float = 0.15
    clearance_slack: float = 0.1
    food_alignment_alpha: float = 0.4
    min_unknown_margin: float = 0.05
    max_draws: int = 1_000_000

    def __post_init__(self):
        if self.dim < 4:
            raise ValueError("dim must be at least 4")
        if not 0.0 < self.nood_angle < np.pi:
            raise ValueError("nood_angle must lie in (0, pi)")
        if not 0.0 < self.food_min_angle < np.pi:
            raise ValueError("food_min_angle must lie in (0, pi)")
        if self.n_nood < 0 or self.n_food < 0:
            raise ValueError("class counts must be nonnegative")
        if not self.known_per_task or min(self.known_per_task) < 1:
            raise ValueError("every task needs at least one known class")
        if any(c < 0 for _, c in self.scenes_per_split):
            raise ValueError("scene counts must be nonnegative")
        if self.box_jitter < 0:
            raise ValueError("box_jitter must be nonnegative")
        if not self.background_max_cos > -1.0:
            raise ValueError("background_max_cos must exceed -1: no unit vector has a "
                             "cosine below -1 to every prototype")
        if self.n_nood > sum(self.known_per_task):
            raise ValueError("need at least one distinct known partner per near-OOD class")
        if len(self.box_size_ranges) != len(self.pyramid_layers):
            raise ValueError("one box size range per pyramid layer")
        if len(self.level_thresholds) != len(self.pyramid_layers):
            raise ValueError("one lower size threshold per pyramid layer")
        counts = self.boxes_per_scene
        if len(counts) != 2 or not 0 <= counts[0] <= counts[1]:
            raise ValueError("boxes_per_scene must be two counts lo <= hi")
        if any(h < 1 or w < 1 for h, w, _ in self.pyramid_layers):
            raise ValueError("every pyramid layer needs a height and width of at least 1")
        self.geometry()  # raises on strides or thresholds that make no pyramid
        # every box must fit the image and reach the first pyramid level
        side, floor = min(self.image_extent()), self.level_thresholds[0]
        for lo, hi in self.box_size_ranges:
            if not (0.0 < lo <= hi <= side and lo >= floor):
                raise ValueError(f"box size range {lo}-{hi} must have 0 < lo <= hi <= "
                                 f"{side} (the shorter image side) and lo >= {floor}")

    @property
    def num_known(self) -> int:
        return sum(self.known_per_task)

    @property
    def num_unknown(self) -> int:
        return self.n_nood + self.n_food

    def geometry(self) -> PyramidGeometry:
        return PyramidGeometry(
            layers=tuple(LayerGeometry(h, w, float(s)) for h, w, s in self.pyramid_layers),
            level_thresholds=tuple(self.level_thresholds) + (float("inf"),),
        )

    def image_extent(self) -> tuple[float, float]:
        g0 = self.pyramid_layers[0]
        return g0[1] * g0[2], g0[0] * g0[2]

    def scene_count(self, split: str) -> int:
        for name, count in self.scenes_per_split:
            if name == split:
                return count
        raise KeyError(split)


@dataclass(frozen=True)
class WorldClass:
    name: str
    kind: str                # known | nood | food
    task_id: int | None      # None for never-introduced classes
    prototype: np.ndarray
    partner: str | None = None  # nearest known class, for near-OOD classes


@dataclass(frozen=True)
class World:
    spec: WorldSpec
    seed: int
    classes: tuple[WorldClass, ...]
    generic_object: np.ndarray
    text_embeddings: dict[str, np.ndarray]

    @property
    def geometry(self) -> PyramidGeometry:
        return self.spec.geometry()

    @property
    def known_classes(self) -> tuple[WorldClass, ...]:
        return tuple(c for c in self.classes if c.kind == KIND_KNOWN)

    @property
    def unknown_classes(self) -> tuple[WorldClass, ...]:
        return tuple(c for c in self.classes if c.kind != KIND_KNOWN)

    def task_split(self) -> TaskSplitSpec:
        """Known class names per task, in the order `make_world` built them."""
        return TaskSplitSpec(tasks=tuple(
            (t, tuple(c.name for c in self.classes if c.task_id == t))
            for t in range(1, len(self.spec.known_per_task) + 1)))


def _angle(a: np.ndarray, b: np.ndarray) -> float:
    # `np.clip` of one scalar; max and min keep NaN and -0.0 as it does
    return float(np.arccos(min(max(a @ b, -1.0), 1.0)))


class _DrawBudget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise InfeasibleSpec(
                f"world construction exhausted {self.limit} rejection draws")


def _random_tangent(rng: np.random.Generator, axes: list[np.ndarray], dim: int,
                    budget: _DrawBudget) -> np.ndarray:
    """Unit vector orthogonal to every axis in `axes`."""
    while True:
        budget.spend()
        v = rng.normal(size=dim)
        for ax in axes:
            v -= (v @ ax) * ax
        n = np.linalg.norm(v)
        if n > 1e-8:
            return v / n


def _rotate_from(base: np.ndarray, tangent: np.ndarray, angle: float) -> np.ndarray:
    return np.cos(angle) * base + np.sin(angle) * tangent


def make_world(spec: WorldSpec, seed: int) -> World:
    """Build prototypes, synthetic text embeddings, and the generic-object
    direction.

    Known prototypes land on a ring around a hidden axis with pairwise
    angles of at least twice the near-OOD offset, and each near-OOD
    prototype sits at exactly the configured offset from its own known
    partner. Far-OOD prototypes cluster around a center placed at a fixed
    angle off the known axis; known draws are kept clear of that center
    (and capped in how far their tangent leans toward it), which is what
    lets the generic-object direction, pushed away from the known mean,
    land closer to every far-OOD prototype than to any known embedding.
    That margin, and a positive cosine from the generic-object embedding
    to every prototype, are checked explicitly; violations restart
    construction, and running out of restarts or rejection draws raises
    InfeasibleSpec.
    """
    budget = _DrawBudget(spec.max_draws)
    last_error = "no attempts made"
    for attempt in range(64):
        rng = derive_rng(seed, "world", attempt)
        try:
            return _build_world(spec, seed, rng, budget)
        except _RetryWorld as exc:
            last_error = str(exc)
            continue
    raise InfeasibleSpec(f"world construction failed: {last_error}")


class _RetryWorld(Exception):
    pass


def _build_world(spec: WorldSpec, seed: int, rng: np.random.Generator,
                 budget: _DrawBudget) -> World:
    dim = spec.dim
    axis = _random_tangent(rng, [], dim, budget)
    min_known_gap = 2.0 * spec.nood_angle
    clearance = spec.food_min_angle + spec.clearance_slack
    lo, hi = spec.known_angle_range

    food_center = None
    foodward = None
    if spec.n_food > 0:
        foodward = _random_tangent(rng, [axis], dim, budget)
        food_center = _rotate_from(axis, foodward, spec.food_axis_angle)

    knowns: list[np.ndarray] = []
    tries = 0
    while len(knowns) < spec.num_known:
        budget.spend()
        tries += 1
        if tries > 40_000:
            raise _RetryWorld("known prototypes did not fit the ring")
        theta = rng.uniform(lo, hi)
        tangent = _random_tangent(rng, [axis], dim, budget)
        cand = _rotate_from(axis, tangent, theta)
        if foodward is not None and tangent @ foodward > spec.foodward_cap:
            continue
        if food_center is not None and _angle(cand, food_center) < clearance:
            continue
        if any(_angle(cand, k) < min_known_gap for k in knowns):
            continue
        knowns.append(cand)

    noods: list[tuple[np.ndarray, int]] = []
    nood_axis_cap = hi + spec.nood_angle / 2.0
    for k in range(spec.n_nood):
        partner = knowns[k]
        placed = False
        for _ in range(2_000):
            budget.spend()
            tangent = _random_tangent(rng, [partner], dim, budget)
            cand = _rotate_from(partner, tangent, spec.nood_angle)
            if _angle(cand, axis) > nood_axis_cap:
                continue
            dists = [_angle(cand, known) for known in knowns]
            if int(np.argmin(dists)) == k:
                noods.append((cand, k))
                placed = True
                break
        if not placed:
            raise _RetryWorld("near-OOD prototype could not keep its partner nearest")

    foods: list[np.ndarray] = []
    tries = 0
    while len(foods) < spec.n_food:
        budget.spend()
        tries += 1
        if tries > 40_000:
            raise _RetryWorld("far-OOD prototypes did not fit their cluster")
        offset = rng.uniform(0.0, spec.food_spread)
        tangent = _random_tangent(rng, [food_center], dim, budget)
        cand = _rotate_from(food_center, tangent, offset)
        if any(_angle(cand, k) < spec.food_min_angle for k in knowns):
            continue
        foods.append(cand)

    prototypes = knowns + [p for p, _ in noods] + foods
    mean = np.mean(prototypes, axis=0)
    norm = np.linalg.norm(mean)
    if norm < 1e-9:
        raise _RetryWorld("prototype mean degenerated")
    generic = mean / norm
    if min(float(generic @ p) for p in prototypes) <= 0.0:
        raise _RetryWorld("generic-object direction left some prototype behind")

    classes: list[WorldClass] = []
    known_names: list[str] = []
    idx = 0
    for t, count in enumerate(spec.known_per_task, start=1):
        for i in range(count):
            name = f"class_t{t}_{i}"
            classes.append(WorldClass(name=name, kind=KIND_KNOWN, task_id=t,
                                      prototype=knowns[idx]))
            known_names.append(name)
            idx += 1
    for i, (proto, partner_idx) in enumerate(noods):
        classes.append(WorldClass(name=f"nood_{i}", kind=KIND_NOOD, task_id=None,
                                  prototype=proto, partner=known_names[partner_idx]))
    for i, proto in enumerate(foods):
        classes.append(WorldClass(name=f"food_{i}", kind=KIND_FOOD, task_id=None,
                                  prototype=proto))

    text: dict[str, np.ndarray] = {}
    for c in classes:
        if c.kind != KIND_KNOWN:
            continue
        noise = _random_tangent(rng, [c.prototype], spec.dim, budget)
        raw = c.prototype + spec.text_noise_sigma * rng.normal() * noise
        text[c.name] = raw / np.linalg.norm(raw)

    # the shifted generic prompt must sit closer to every far-OOD prototype
    # than to any known embedding, with margin
    if foods:
        stacked = np.stack([text[n] for n in known_names])
        shifted = normalize(pseudo_unknown_embedding(stacked, generic,
                                                     spec.food_alignment_alpha))
        best_known = max(float(shifted @ t) for t in stacked)
        worst_food = min(float(shifted @ f) for f in foods)
        if worst_food - best_known < spec.min_unknown_margin:
            raise _RetryWorld(
                f"unknown-prompt margin {worst_food - best_known:.3f} below "
                f"{spec.min_unknown_margin}")

    return World(spec=spec, seed=seed, classes=tuple(classes),
                 generic_object=generic, text_embeddings=text)


# ---------------------------------------------------------------------------
# scenes


@dataclass(frozen=True)
class Scene:
    scene_id: str
    pyramid: FeaturePyramid
    gt: tuple[GtRecord, ...]


# placement tries per box; a box with no free spot among them is dropped
_PLACEMENT_TRIES = 200
# rows of one background block draw, which bounds memory while a hard
# `background_max_cos` runs a scene's draw budget down
_BLOCK_ROWS = 1 << 14


def _sample_boxes(world: World, scene_id: str, rng: np.random.Generator) -> list[GtRecord]:
    spec = world.spec
    geometry = world.geometry
    img_w, img_h = spec.image_extent()
    lo, hi = spec.boxes_per_scene
    n_boxes = int(rng.integers(lo, hi + 1))
    known = [c.name for c in world.known_classes]
    unknown = [c.name for c in world.unknown_classes]
    boxes: list[GtRecord] = []
    taken = np.empty((0, 4))
    for _ in range(n_boxes):
        if unknown and rng.random() < spec.unknown_box_ratio:
            name = unknown[int(rng.integers(len(unknown)))]
        else:
            name = known[int(rng.integers(len(known)))]
        level = int(rng.integers(geometry.num_layers))
        size_lo, size_hi = spec.box_size_ranges[level]
        long_side = float(rng.uniform(size_lo, size_hi))
        stride = geometry.layers[level].stride
        short_side = float(np.clip(long_side * rng.uniform(0.6, 1.0),
                                   stride * 1.05, long_side))
        if rng.random() < 0.5:
            w, h = long_side, short_side
        else:
            w, h = short_side, long_side
        # every try's corner at once, tested against the placed boxes; each
        # coordinate is `rng.uniform(0, extent)`, one double of the stream,
        # which is rewound after the test to draw exactly the tries used
        state = rng.bit_generator.state
        corner = rng.random((_PLACEMENT_TRIES, 2)) * (img_w - w, img_h - h)
        x1, y1 = corner[:, :1], corner[:, 1:]
        overlaps = ((x1 + w > taken[:, 0]) & (taken[:, 2] > x1)
                    & (y1 + h > taken[:, 1]) & (taken[:, 3] > y1)).any(axis=1)
        free = np.flatnonzero(~overlaps)
        if free.size:
            t = int(free[0])
            rng.bit_generator.state = state
            rng.random(2 * (t + 1))
            x, y = float(corner[t, 0]), float(corner[t, 1])
            boxes.append(GtRecord(scene_id, (x, y, x + w, y + h), name))
            taken = np.array([sb.box for sb in boxes])
    return boxes


def _replay_rounds(ok: np.ndarray, n: int) -> np.ndarray:
    """The cell each accepted candidate fills when `n` cells are refilled
    round by round from candidates whose accept flags are `ok`, in draw
    order, up to the `n`-th accept.

    The rounds form one FIFO queue: candidate j serves queue slot j, and a
    rejected candidate re-queues its cell at slot n + (rejections before
    it). Pointer jumping over that slot-to-rejector map finds the cell at
    the root of every chain in O(log rounds) array passes."""
    origin = np.arange(ok.size)
    origin[n:] = np.flatnonzero(~ok)
    while True:
        up = origin[origin]
        if np.array_equal(up, origin):
            return origin[ok]
        origin = up


def _background_layers(world: World, counts: list[int], extra: int,
                       rng: np.random.Generator, scene_id: str):
    """Unit vectors kept dissimilar to every prototype for layers of
    `counts` cells, plus the `extra` normal rows that follow the last
    accepted candidate in the stream, and the number of rows the layers
    used.

    The rows are drawn in blocks that grow by the measured acceptance rate;
    the stream, and so every layer, is the one that refilling each layer's
    rejected cells round by round would draw. A scene may draw at most
    `spec.max_draws` candidate rows."""
    spec = world.spec
    protos_t = np.stack([c.prototype for c in world.classes]).T
    need = sum(counts)
    flags: list[np.ndarray] = []
    kept: list[np.ndarray] = []
    accepted = drawn = 0
    size = need + extra
    while True:
        size = min(size, _BLOCK_ROWS, spec.max_draws - drawn)
        if size <= 0:
            raise InfeasibleSpec(
                f"background_max_cos={spec.background_max_cos} let {accepted} of "
                f"{drawn} background draws of scene {scene_id} pass, short of the "
                f"{need} cells a scene needs (max_draws={spec.max_draws})")
        block = rng.normal(size=(size, spec.dim))
        unit = block / np.linalg.norm(block, axis=1, keepdims=True)
        ok = (unit @ protos_t).max(axis=1) < spec.background_max_cos
        hits = np.flatnonzero(ok)[:need - accepted]
        flags.append(ok)
        kept.append(unit[hits])
        if accepted + hits.size == need:
            break
        accepted += hits.size
        drawn += size
        # rows left to reach the last accept at the rate seen so far, with
        # a margin so that one more block usually suffices
        size = (int((need - accepted) * 1.05 * drawn / accepted) + 16 + extra
                if accepted else 2 * drawn)
    end = int(hits[-1]) + 1
    tail = block[end:end + extra]
    if tail.shape[0] < extra:
        tail = np.concatenate([tail, rng.normal(size=(extra - tail.shape[0], spec.dim))])
    ok = np.concatenate(flags)[:drawn + end]
    unit = np.concatenate(kept)
    layers = []
    start = first = 0
    for n, stop in zip(counts, np.flatnonzero(ok)[np.cumsum(counts) - 1] + 1):
        feats = np.empty((n, spec.dim))
        feats[_replay_rounds(ok[start:stop], n)] = unit[first:first + n]
        layers.append(feats)
        start, first = stop, first + n
    return layers, tail, drawn + end


def _cell_boxes(g: LayerGeometry) -> np.ndarray:
    """The (H, W, 4) field of the box each cell emits, (col, row, col + 1,
    row + 1) strides, which the tests compare bit for bit."""
    field = np.empty((g.height, g.width, 4))
    xs = np.arange(g.width + 1) * g.stride
    ys = np.arange(g.height + 1)[:, None] * g.stride
    field[..., 0], field[..., 1], field[..., 2], field[..., 3] = xs[:-1], ys[:-1], xs[1:], ys[1:]
    return field


def generate_scene(world: World, split: str, index: int) -> Scene:
    """Materialize one scene, seeded by (world seed, split, index).

    After the GT boxes are placed, the scene's stream holds only normals:
    background candidates of layer 0, then of layer 1, then each GT box's
    noise rows. With `box_jitter` > 0 each box's jitter uniforms follow its
    noise rows, so the stream is rewound and redrawn up to the first noise
    row, and the boxes draw from it one by one."""
    rng = derive_rng(world.seed, "scene", split, index)
    spec = world.spec
    geometry = world.geometry
    scene_id = f"{split}-{index:04d}"
    gt = _sample_boxes(world, scene_id, rng)
    levels, box, cells = geometry.owned_cells([sb.box for sb in gt])
    cuts = box.searchsorted(np.arange(len(gt) + 1)).tolist()
    owned = [(level, cells[start:stop])
             for level, start, stop in zip(levels.tolist(), cuts, cuts[1:])]
    jitter = spec.box_jitter > 0.0
    extra = 0 if jitter else cells.size
    if jitter:
        state = rng.bit_generator.state
    feats, noise, used = _background_layers(
        world, [g.height * g.width for g in geometry.layers], extra, rng, scene_id)
    if jitter:
        rng.bit_generator.state = state
        for start in range(0, used, _BLOCK_ROWS):
            rng.normal(size=(min(_BLOCK_ROWS, used - start), spec.dim))
    layers = [f.reshape(g.height, g.width, spec.dim) for f, g in zip(feats, geometry.layers)]
    box_fields = [_cell_boxes(g) for g in geometry.layers]

    # noise_sigma scales the total perturbation norm, not each coordinate
    scale = spec.noise_sigma / np.sqrt(spec.dim)
    protos = {c.name: c.prototype for c in world.classes}
    row = 0
    for sb, (level, cells) in zip(gt, owned):
        g = geometry.layers[level]
        rows, cols = np.divmod(cells, g.width)
        if jitter:
            eps = rng.normal(size=(cells.size, spec.dim))
        else:
            eps, row = noise[row:row + cells.size], row + cells.size
        noisy = protos[sb.class_name][None, :] + scale * eps
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        layers[level][rows, cols] = noisy
        emitted = np.array(sb.box, dtype=np.float64)
        if jitter:
            emitted = emitted + rng.uniform(
                -spec.box_jitter, spec.box_jitter, size=(cells.size, 4)) * g.stride
            if ((emitted[:, 2] <= emitted[:, 0]) | (emitted[:, 3] <= emitted[:, 1])).any():
                raise InfeasibleSpec(
                    f"box_jitter={spec.box_jitter} turns a {sb.box[2] - sb.box[0]:.1f}"
                    f"x{sb.box[3] - sb.box[1]:.1f} box at stride {g.stride} inside out")
        box_fields[level][rows, cols] = emitted

    pyramid = FeaturePyramid(geometry=geometry, layers=tuple(layers),
                             box_field=tuple(box_fields))
    return Scene(scene_id=scene_id, pyramid=pyramid, gt=tuple(gt))


# ---------------------------------------------------------------------------
# export / import


def _tuples(value):
    """`value` with every JSON list, nested ones too, turned into a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def export_world(world: World, out_dir) -> None:
    """Write the manifest, the embedding file, and the task split into `out_dir`."""
    out = Path(out_dir)
    manifest = {
        "format": 1,
        "seed": world.seed,
        "spec": asdict(world.spec),
        "classes": [asdict(c) | {"prototype": c.prototype.tolist()} for c in world.classes],
    }
    write_json(out / MANIFEST_NAME, manifest)
    embeddings = dict(world.text_embeddings)
    embeddings[GENERIC_OBJECT_KEY] = world.generic_object
    save_embedding_file(out / EMBEDDINGS_NAME, embeddings)
    save_task_split(out / TASK_SPLIT_NAME, world.task_split())


def _manifest_spec(manifest) -> WorldSpec:
    return WorldSpec(**{key: _tuples(v) for key, v in manifest["spec"].items()})


def _manifest_fields(manifest) -> tuple[WorldSpec, int, tuple[WorldClass, ...]]:
    classes = tuple(
        WorldClass(**c | {"prototype": np.asarray(c["prototype"], dtype=np.float64)})
        for c in manifest["classes"])
    return _manifest_spec(manifest), int(manifest["seed"]), classes


def _read_manifest(out_dir, parse):
    return read_json(Path(out_dir) / MANIFEST_NAME, "world manifest", parse, MissingWorld,
                     "; run gen first")


def load_world_spec(out_dir) -> WorldSpec:
    """The spec of the world `export_world` wrote to `out_dir`, read from
    its manifest alone."""
    return _read_manifest(out_dir, _manifest_spec)


def load_world(out_dir) -> World:
    """The world `export_world` wrote to `out_dir`; a manifest or embedding
    file that is not one raises `ParseError` naming it."""
    spec, seed, classes = _read_manifest(out_dir, _manifest_fields)
    path = Path(out_dir) / EMBEDDINGS_NAME
    embeddings = load_embedding_file(path)
    needed = [GENERIC_OBJECT_KEY] + [c.name for c in classes if c.kind == KIND_KNOWN]
    missing = [name for name in needed if name not in embeddings]
    if missing:
        raise ParseError(f"no embedding for {missing}", path=str(path))
    generic = embeddings.pop(GENERIC_OBJECT_KEY)
    return World(spec=spec, seed=seed, classes=classes,
                 generic_object=generic, text_embeddings=embeddings)


def export_splits(world: World, out_dir) -> None:
    """Write every scene blob of every split of the spec plus each split's
    ground-truth JSON lines.

    All the splits' scenes are generated and written through one
    `ordered_map`, on every CPU this process may use; a scene depends on its
    own seeded stream alone, so the files are the same at any CPU count.
    Each scene hands back only its visible ground truth, never its
    pyramid."""
    splits = [split for split, _ in world.spec.scenes_per_split]
    base = Path(out_dir) / "scenes"
    for split in splits:
        (base / split).mkdir(parents=True, exist_ok=True)
    known = {c.name for c in world.known_classes}

    def export_scene(item: tuple[str, int]) -> list[GtRecord]:
        split, index = item
        scene = generate_scene(world, split, index)
        write_pyramid_blob(base / split / f"{scene.scene_id}.pyr", scene.pyramid)
        # never-introduced classes are unlabeled outside the test split
        return [g for g in scene.gt if split == "test" or g.class_name in known]

    items = [(split, index) for split in splits
             for index in range(world.spec.scene_count(split))]
    records: dict[str, list[GtRecord]] = {split: [] for split in splits}
    for (split, _), scene in zip(items, ordered_map(export_scene, items)):
        records[split] += scene
    for split in splits:
        write_gt_jsonl(base / split / "gt.jsonl", records[split])


def split_scene_blobs(spec: WorldSpec, split: str, out_dir,
                      gt: list[GtRecord]) -> list[Path]:
    """The blob of every scene of `split` under `out_dir`, `{split}-0000.pyr`
    up to the manifest's scene count (none for a split it does not list), in
    index order, with `gt` the split's ground truth.

    A missing blob raises `MissingInput` naming it; a `.pyr` file of no
    scene of the split, or a ground-truth record of a scene that has no
    blob, raises `ParseError`."""
    base = Path(out_dir) / "scenes" / split
    count = dict(spec.scenes_per_split).get(split, 0)
    ids = [f"{split}-{index:04d}" for index in range(count)]
    on_disk = {blob.stem for blob in base.glob("*.pyr")}
    for scene_id in ids:
        if scene_id not in on_disk:
            raise MissingInput(f"no scene blob at {base / scene_id}.pyr; run gen again")
    extra = sorted(on_disk.difference(ids))
    if extra:
        raise ParseError(f"scene blob of no scene of split {split!r}, which holds "
                         f"{count} scenes", path=f"{base / extra[0]}.pyr")
    known = set(ids)
    for index, record in enumerate(gt):
        if record.scene_id not in known:
            path = base / "gt.jsonl"
            raise ParseError(f"ground truth of scene {record.scene_id!r}, which has "
                             f"no blob", path=str(path), line=_record_line(path, index))
    return [base / f"{scene_id}.pyr" for scene_id in ids]


def read_scene_pyramid(world: World, blob) -> FeaturePyramid:
    """The pyramid of the scene blob at `blob`, its grids float32 as the blob
    stores them (`read_pyramid_blob`). They must have the shapes of the
    world's pyramid, (H, W, dim) per layer, or a `ParseError` names it: the
    scenes of a split stack into one array per layer."""
    pyramid = read_pyramid_blob(blob, world.geometry.level_thresholds)
    want = [(h, w, world.spec.dim) for h, w, _ in world.spec.pyramid_layers]
    got = [grid.shape for grid in pyramid.layers]
    if got != want:
        raise ParseError(f"scene blob of grid shapes {got}, but the world's pyramid has "
                         f"{want}", path=str(blob))
    return pyramid


def load_split(world: World, split: str, out_dir) -> list[Scene]:
    """Read a split back from disk in index order; its blobs must be the ones
    `split_scene_blobs` names. Each scene holds its grids at the blob's
    float32, H * W * (D + 4) * 4 bytes per layer."""
    base = Path(out_dir) / "scenes" / split
    gt = read_gt_jsonl(base / "gt.jsonl")
    gt_by_scene: dict[str, list[GtRecord]] = {}
    for rec in gt:
        gt_by_scene.setdefault(rec.scene_id, []).append(rec)
    return [Scene(scene_id=blob.stem, pyramid=read_scene_pyramid(world, blob),
                  gt=tuple(gt_by_scene.get(blob.stem, ())))
            for blob in split_scene_blobs(world.spec, split, out_dir, gt)]
