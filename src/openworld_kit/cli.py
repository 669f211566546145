"""Command-line surface: world generation, task-by-task training, inference
with ablation toggles, metric reports, and hyperparameter sweeps.

Configuration is an INI-style file with sections; every key can be
overridden on the command line with `--set section.key=value`. All
randomness derives from the single seed in [run].
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import detection as det
from . import owod_eval as ev
from .embedding_space import (
    ClassEmbeddingRegistry,
    GENERIC_OBJECT_KEY,
    prompt_matrix,
    pseudo_unknown_embedding,
    register_task,
)
from .errors import (ConfigError, MissingCheckpoint, OpenWorldKitError, ParseError,
                     atomic_directory, atomic_text_file, atomic_text_files, read_json)
from .mscal import fold_modules, ood_score_map
from .parallel import ordered_map
from .synthetic_world import (
    MANIFEST_NAME,
    TASK_SPLIT_NAME,
    World,
    WorldSpec,
    export_splits,
    export_world,
    load_split,
    load_world,
    load_world_spec,
    make_world,
    read_scene_pyramid,
    split_scene_blobs,
)
from .training import (
    CONFIG_FILE,
    WORLD_DIGEST_KEY,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_task,
)


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_unit(text: str) -> float:
    value = _parse_float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError("not in [0, 1]")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_SCALAR_PARSERS = {int: int, float: _parse_float, str: str}

# the text between the parts of one item of a tuple-of-tuples field:
# 16x16x16 (height x width x stride), 20-56 (lo-hi), train:60 (split:count)
_ITEM_SEPARATORS = {tuple[int, int, float]: "x", tuple[float, float]: "-",
                    tuple[str, int]: ":"}


def _parser_for(hint, sep: str = ","):
    """The parser of a value of type `hint` from its INI text: a `tuple[X, ...]`
    is its items split on `sep`, skipping blank scalar items (`5,5,` is (5, 5)),
    and a fixed-length tuple exactly one item per member type."""
    if get_origin(hint) is not tuple:
        return _SCALAR_PARSERS[hint]
    args = get_args(hint)
    if args[-1] is Ellipsis:
        item = args[0]
        parse_item = _parser_for(item, _ITEM_SEPARATORS.get(item))
        keep_blank = get_origin(item) is tuple
        return lambda text: tuple(parse_item(tok) for tok in text.split(sep)
                                  if keep_blank or tok.strip())
    parsers = [_parser_for(arg) for arg in args]

    def parse(text: str) -> tuple:
        toks = text.strip().split(sep)
        if len(toks) != len(parsers):
            raise ValueError(f"expected {len(parsers)} items separated by {sep!r}")
        return tuple(parse_tok(tok) for parse_tok, tok in zip(parsers, toks))
    return parse


def _fields_schema(spec) -> dict[str, tuple]:
    """A key per field of dataclass `spec` but `seed` (a [run] key): the
    parser of the field's type and the field's default."""
    hints = get_type_hints(spec)
    return {f.name: (_parser_for(hints[f.name]), f.default)
            for f in fields(spec) if f.name != "seed"}


# section -> key -> (parser of the INI text, typed default); a None default
# marks an optional key, which an empty value leaves unset
SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "seed": (int, 0),
        "out_dir": (str, "out"),
    },
    "world": _fields_schema(WorldSpec),
    "train": _fields_schema(TrainConfig),
    "detect": {
        "conf_threshold": (_parse_unit, 0.25),
        "nms_iou": (_parse_unit, 0.7),
        "class_wise_nms": (_parse_bool, True),
    },
    "eval": {
        "iou_threshold": (_parse_unit, 0.5),
        "recall_level": (_parse_unit, 0.8),
    },
    "thresholds": {
        "min_map_both": (_parse_float, None),
        "min_u_recall": (_parse_float, None),
        "max_a_ose": (int, None),
        "max_wi": (_parse_float, None),
    },
}


class RunConfig:
    """Resolved configuration: one typed value per SCHEMA key, each parsed
    once from the text that set it."""

    def __init__(self, values: dict[str, dict]):
        self.values = values

    @classmethod
    def load(cls, config_path: str | None, overrides: list[str] | None = None,
             seed: int | None = None, out_dir: str | None = None) -> "RunConfig":
        cfg = cls({section: {key: default for key, (_, default) in keys.items()}
                   for section, keys in SCHEMA.items()})
        if config_path:
            parser = configparser.ConfigParser()
            parser.optionxform = str
            try:
                if not parser.read(config_path):
                    raise ConfigError(f"config file not found: {config_path}")
                for section in parser.sections():
                    if section not in SCHEMA:
                        raise ConfigError(f"unknown config section [{section}]")
                    for key, value in parser.items(section):
                        cfg._set(section, key, value)
            except (configparser.Error, UnicodeDecodeError) as exc:
                raise ConfigError(f"unreadable config file {config_path}: {exc}") from exc
        cfg = cfg.with_overrides(overrides or [])
        if seed is not None:
            cfg._set("run", "seed", str(seed))
        if out_dir is not None:
            cfg._set("run", "out_dir", out_dir)
        return cfg

    def _set(self, section: str, key: str, text: str) -> None:
        """Parse `text` as the value of `section.key`."""
        if key not in SCHEMA.get(section, {}):
            raise ConfigError(f"unknown config key {section}.{key}")
        parse, default = SCHEMA[section][key]
        if text == "" and default is not None:
            raise ConfigError(f"{section}.{key} needs a value")
        try:  # an empty text leaves an optional key unset
            self.values[section][key] = parse(text) if text else None
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {text!r} ({exc})") from exc

    def with_overrides(self, overrides: list[str]) -> "RunConfig":
        """A copy with each `section.key=value` of `overrides` set in turn."""
        cfg = RunConfig({section: dict(keys) for section, keys in self.values.items()})
        for item in overrides:
            dotted, eq, text = item.partition("=")
            section, dot, key = dotted.partition(".")
            if not (eq and dot):
                raise ConfigError(f"override must look like section.key=value: {item!r}")
            cfg._set(section, key, text)
        return cfg

    def get(self, section: str, key: str):
        return self.values[section][key]

    @property
    def seed(self) -> int:
        return self.get("run", "seed")

    @property
    def out_dir(self) -> Path:
        return Path(self.get("run", "out_dir"))

    def world_spec(self) -> WorldSpec:
        try:
            return WorldSpec(**self.values["world"])
        except ValueError as exc:
            raise ConfigError(f"bad [world] config: {exc}") from exc

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(seed=self.seed, **self.values["train"])
        except ValueError as exc:
            raise ConfigError(f"bad [train] config: {exc}") from exc

    def echo(self) -> dict:
        """The resolved configuration, as typed values."""
        return {section: dict(keys) for section, keys in self.values.items()}


def _world_dir(cfg: RunConfig) -> Path:
    return cfg.out_dir / "world"


def _checkpoint_dir(cfg: RunConfig, task_id: int) -> Path:
    return cfg.out_dir / "checkpoints" / f"task_{task_id}"


def _world_digest(cfg: RunConfig) -> str:
    """The SHA-256 of the world's manifest, which holds its spec and seed."""
    return hashlib.sha256((_world_dir(cfg) / MANIFEST_NAME).read_bytes()).hexdigest()


# [train] keys every task of a run shares: `tau` sets how each module scales
# its anchor similarities, and theta is calibrated over old and new modules
# together
_CARRIED_TRAIN_KEYS = ("tau",)


def _load_checkpoint(ckpt: Path, world: World, digest: str):
    """`load_checkpoint(ckpt)`, whose embeddings must have the world's dim,
    whose modules the world's pyramid layer count and dim, and whose config
    the world's `digest`; and the config's `_CARRIED_TRAIN_KEYS`."""
    registry, modules, theta = load_checkpoint(ckpt)
    dim = registry.dim
    if dim != world.spec.dim:
        raise ConfigError(f"checkpoint {ckpt} holds dim-{dim} embeddings, but the world "
                          f"has world.dim={world.spec.dim}")
    layers = world.geometry.num_layers
    for m in modules:
        if (m.num_layers, m.in_dim) != (layers, world.spec.dim):
            raise ConfigError(
                f"checkpoint {ckpt} holds a module of class {m.class_id} with "
                f"{m.num_layers} layers of dim {m.in_dim}, but the world's pyramid "
                f"has {layers} layers of dim {world.spec.dim}")
    saved = read_json(ckpt / CONFIG_FILE, "checkpoint file",
                      lambda payload: {k: payload[k]
                                       for k in (WORLD_DIGEST_KEY, *_CARRIED_TRAIN_KEYS)},
                      missing=MissingCheckpoint)
    trained_on = saved.pop(WORLD_DIGEST_KEY)
    if trained_on != digest:
        raise ConfigError(f"checkpoint {ckpt} was trained on a world of manifest SHA-256 "
                          f"{trained_on}, but this world's is {digest}; train again on this world")
    return registry, modules, theta, saved


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: RunConfig) -> int:
    spec = cfg.world_spec()
    world = make_world(spec, cfg.seed)
    out = _world_dir(cfg)
    with atomic_directory(out) as tmp:
        export_world(world, tmp)
        export_splits(world, tmp)
    print(f"world written to {out}: {len(spec.known_per_task)} tasks, "
          f"{spec.num_known} known classes, {spec.num_unknown} unknown classes")
    return 0


def cmd_train(cfg: RunConfig, task_id: int) -> int:
    world = load_world(_world_dir(cfg))
    digest = _world_digest(cfg)
    new_names = world.task_split().current_classes(task_id)
    train_cfg = cfg.train_config()

    if task_id == 1:
        registry, modules, prev_dir = ClassEmbeddingRegistry(entries=()), [], None
    else:
        prev_dir = _checkpoint_dir(cfg, task_id - 1)
        if not prev_dir.exists():
            raise MissingCheckpoint(f"train task {task_id - 1} first: {prev_dir} missing")
        registry, modules, _, previous = _load_checkpoint(prev_dir, world, digest)
        for key, value in previous.items():
            if getattr(train_cfg, key) != value:
                raise ConfigError(
                    f"train.{key}={getattr(train_cfg, key)!r}, but task {task_id - 1} "
                    f"was trained with train.{key}={value!r}; every task of a run "
                    f"must use the same value")
    # every loaded module is frozen and its file is copied forward
    unchanged = {m.class_id for m in modules}

    registry = register_task(registry, [(n, world.text_embeddings[n]) for n in new_names])

    data = SimpleNamespace(geometry=world.geometry,
                           train_scenes=load_split(world, "train", _world_dir(cfg)),
                           cal_scenes=load_split(world, "cal", _world_dir(cfg)))
    registry, modules, log = train_task(data, registry, modules, train_cfg, task_id)
    ckpt = _checkpoint_dir(cfg, task_id)
    save_checkpoint(ckpt, registry, modules, log.theta, train_cfg, log,
                    previous=prev_dir, unchanged=unchanged, world_digest=digest)
    print(f"task {task_id}: {registry.num_known} embeddings, {len(modules)} modules, "
          f"theta={log.theta:.6f} -> {ckpt}")
    return 0


# scenes per `ordered_map` item of `infer`: fixed, so that no byte depends
# on the CPU count; both bench test splits (40, 20 scenes) cut into an even
# number of chunks
INFER_CHUNK = 5


def cmd_infer(cfg: RunConfig, task_id: int, split: str, no_owel: bool,
              no_mscal: bool, prompt_key: str | None = None,
              out_file: str | None = None) -> int:
    """Detect every scene of `split` into a detections file and its column
    file. The parent checks the split (`split_scene_blobs`) and reads no
    pyramid; each `ordered_map` item, a chunk of `INFER_CHUNK` blobs, is
    read, classified and OOD-scored in one call per layer stack, then each
    scene is decoded, gated, suppressed and formatted. The first blob that
    fails to read, in split order, raises its own error. A stack keeps a
    score's bits where each layer's cell count is a multiple of the BLAS
    kernels' row block (16 x 16, 8 x 8 grids), and can move its last bits
    elsewhere; the chunks never depend on the CPU count, nor do the bytes."""
    world = load_world(_world_dir(cfg))
    registry, modules, theta, _ = _load_checkpoint(_checkpoint_dir(cfg, task_id), world,
                                                   _world_digest(cfg))
    alpha = cfg.train_config().alpha
    generic = world.generic_object
    if prompt_key is not None:
        embeddings = world.text_embeddings | {GENERIC_OBJECT_KEY: generic}
        if prompt_key not in embeddings:
            raise ConfigError(f"prompt key {prompt_key!r} not in embedding file")
        generic = embeddings[prompt_key]

    # without OWEL the generic-object prompt passes through untouched as the
    # unknown row
    prompts = prompt_matrix(registry, generic if no_owel else pseudo_unknown_embedding(
        [e.embedding for e in registry.entries], generic, alpha))
    if no_mscal:
        theta = float("inf")

    # folded once, before `ordered_map` forks: every process scores against
    # these folds
    folds = fold_modules(modules)
    labels = det.label_texts(registry.names)

    def detect(blobs: list[Path]) -> list[tuple[str, det.Detections]]:
        """Each scene's JSONL lines and detections (`format_detection_lines`)."""
        pyramids = [read_scene_pyramid(world, blob) for blob in blobs]
        stacks = [np.stack(grids, dtype=np.float64)
                  for grids in zip(*(p.layers for p in pyramids))]
        scores = det.classify_locations(stacks, prompts, cfg.get("train", "logit_scale"))
        ood = ood_score_map(folds, stacks)
        out = []
        for i, (blob, pyramid) in enumerate(zip(blobs, pyramids)):
            dets = det.decode_detections(pyramid, [grid[i] for grid in scores],
                                         cfg.get("detect", "conf_threshold"),
                                         registry.num_known)
            dets = det.apply_ood_gate(dets, [grid[i] for grid in ood], theta)
            dets = det.nms(dets, cfg.get("detect", "nms_iou"),
                           cfg.get("detect", "class_wise_nms"))
            out.append(det.format_detection_lines(blob.stem, dets, labels))
        return out

    world_dir = _world_dir(cfg)
    blobs = split_scene_blobs(world.spec, split, world_dir,
                              ev.read_gt_jsonl(world_dir / "scenes" / split / "gt.jsonl"))
    chunks = [blobs[i:i + INFER_CHUNK] for i in range(0, len(blobs), INFER_CHUNK)]
    results = [scene for chunk in ordered_map(detect, chunks) for scene in chunk]

    if out_file is None:
        suffix = ""
        if no_owel:
            suffix += "_noowel"
        if no_mscal:
            suffix += "_nomscal"
        out_path = cfg.out_dir / "detections" / f"task{task_id}_{split}{suffix}.jsonl"
    else:
        out_path = Path(out_file)
    per_scene = [dets for _, dets in results]
    det.write_detections_jsonl(out_path, [lines for lines, _ in results],
                               det.DetectionTable.from_scenes(
                                   [blob.stem for blob in blobs], per_scene, registry.names))
    total = sum(map(len, per_scene))
    print(f"{total} detections over {len(results)} scenes -> {out_path}")
    return 0


def _stray(names: list[str], codes: np.ndarray, allowed: set, path) -> tuple[str, int] | None:
    """The first of a `DetectionTable` column's `names` not in `allowed`, and
    the file line of its first detection. The names are in first-seen order,
    so that detection is the file's first stray one."""
    for code, name in enumerate(names):
        if name not in allowed:
            return name, det._record_line(path, int(np.argmax(codes == code)))
    return None


def cmd_eval(cfg: RunConfig, task_id: int, detections_path: str, split: str,
             report_path: str | None = None) -> int:
    """Score a detections file against `split` at `task_id`. The split's
    files must be whole (`split_scene_blobs`). A detection of a scene that
    `split` does not hold is a `ParseError`, and a label that is neither
    known at `task_id` nor unknown a `ConfigError`, each naming the line. An
    empty detections file is legal: it scores as no detections."""
    world_dir = _world_dir(cfg)
    dets = det.read_detections_jsonl(detections_path)
    gts = ev.read_gt_jsonl(world_dir / "scenes" / split / "gt.jsonl")
    task_split = ev.load_task_split(world_dir / TASK_SPLIT_NAME)
    scenes = {blob.stem for blob in split_scene_blobs(load_world_spec(world_dir), split,
                                                      world_dir, gts)}
    stray = _stray(dets.scene_names, dets.scenes, scenes, detections_path)
    if stray:
        raise ParseError(f"detection of scene {stray[0]!r}, which split {split!r} does not "
                         f"hold", path=str(detections_path), line=stray[1])
    labels = {*task_split.known_classes(task_id), ev.UNKNOWN_NAME}
    stray = _stray(dets.label_names, dets.labels, labels, detections_path)
    if stray:
        raise ConfigError(f"detection label {stray[0]!r} is neither a class known at task "
                          f"{task_id} nor {ev.UNKNOWN_NAME!r} [{detections_path}:{stray[1]}]")
    report = ev.evaluate_task(
        dets, gts, task_split, task_id,
        iou_thr=cfg.get("eval", "iou_threshold"),
        recall_level=cfg.get("eval", "recall_level"),
        config=cfg.echo() | {"detections": str(detections_path), "split": split},
    )
    if report_path is None:
        report_path = cfg.out_dir / "reports" / (Path(detections_path).stem + "_report.json")
    report_path = Path(report_path)
    # the JSON and its CSV replace the old pair together or not at all
    with atomic_text_files(report_path, report_path.with_suffix(".csv")) as (js, csv):
        ev.write_report_json(js, report)
        ev.write_report_csv(csv, [report])
    print(ev.render_report(report))
    print(f"report -> {report_path}")

    failures = []
    checks = [
        ("min_map_both", report.map_both, lambda v, lim: v >= lim),
        ("min_u_recall", report.u_recall, lambda v, lim: v >= lim),
        ("max_a_ose", report.a_ose, lambda v, lim: v <= lim),
        ("max_wi", report.wi, lambda v, lim: v <= lim),
    ]
    for key, value, ok in checks:
        limit = cfg.get("thresholds", key)
        if limit is None or value is None:
            continue
        if not ok(value, limit):
            failures.append(f"{key}: {value} violates {limit}")
    if failures:
        print("threshold failures: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def cmd_ablate(cfg: RunConfig, task_id: int, parameter: str, values: list[str],
               split: str, retrain: bool) -> int:
    if parameter not in ("alpha", "prompt", "tau"):
        raise ConfigError(f"unknown ablation parameter {parameter!r}")
    if parameter == "tau" and not retrain:
        print("tau changes require retraining; pass --retrain to accept the cost",
              file=sys.stderr)
        return 1
    base = cfg.out_dir / "reports" / f"ablate_{parameter}"
    reports = []
    for value in values:
        tag = value.replace("/", "_")
        det_path = cfg.out_dir / "detections" / f"ablate_{parameter}_{tag}.jsonl"
        if parameter == "alpha":
            eval_cfg = cfg.with_overrides([f"train.alpha={value}"])
            cmd_infer(eval_cfg, task_id, split, no_owel=False, no_mscal=False,
                      out_file=str(det_path))
        elif parameter == "prompt":
            cmd_infer(cfg, task_id, split, no_owel=False, no_mscal=False,
                      prompt_key=value, out_file=str(det_path))
            eval_cfg = cfg
        else:  # tau, retrain into a sandboxed output tree
            eval_cfg = cfg.with_overrides(
                [f"train.tau={value}", f"run.out_dir={cfg.out_dir / f'ablate_tau_{tag}'}"])
            if not _world_dir(eval_cfg).exists():
                cmd_gen(eval_cfg)
            for t in range(1, task_id + 1):
                cmd_train(eval_cfg, t)
            cmd_infer(eval_cfg, task_id, split, no_owel=False, no_mscal=False,
                      out_file=str(det_path))
        report_path = base / f"{tag}_report.json"
        code = cmd_eval(eval_cfg, task_id, str(det_path), split,
                        report_path=str(report_path))
        if code != 0:
            return code
        with open(report_path, "r", encoding="utf-8") as fh:
            reports.append((value, json.load(fh)))

    summary = base / "sweep.csv"
    with atomic_text_file(summary) as fh:
        fh.write("value,map_both,u_recall,wi,a_ose\n")
        for value, rep in reports:
            cells = [str(value)] + [ev.csv_cell(rep[k])
                                    for k in ("map_both", "u_recall", "wi", "a_ose")]
            fh.write(",".join(cells) + "\n")
    print(f"sweep over {parameter} ({len(reports)} rows) -> {summary}")
    return 0


def cmd_report(report_path: str) -> int:
    """Render the report `eval` wrote; a document that is not one
    (`owod_eval.read_report`) raises `ParseError`."""
    print(ev.render_report(ev.read_report(report_path)))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openworld-kit",
        description="synthetic open-world detection: generate, train, infer, evaluate")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override any config key")

    p = sub.add_parser("gen", help="generate a synthetic world")
    common(p)

    p = sub.add_parser("train", help="train one task")
    common(p)
    p.add_argument("--task", type=int, required=True)

    p = sub.add_parser("infer", help="run inference on a split")
    common(p)
    p.add_argument("--task", type=int, required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--no-owel", action="store_true",
                   help="use the raw generic-object prompt as the unknown row")
    p.add_argument("--no-mscal", action="store_true",
                   help="disable the OOD gate (threshold +inf)")
    p.add_argument("--prompt-key", default=None,
                   help="embedding-file key to use as the generic-object prompt")
    p.add_argument("--out-file", default=None)

    p = sub.add_parser("eval", help="score a detections file")
    common(p)
    p.add_argument("--task", type=int, required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--report", default=None)

    p = sub.add_parser("ablate", help="sweep a parameter over values")
    common(p)
    p.add_argument("--task", type=int, required=True)
    p.add_argument("--parameter", required=True, choices=["alpha", "prompt", "tau"])
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument("--split", default="test")
    p.add_argument("--retrain", action="store_true")

    p = sub.add_parser("report", help="pretty-print a report file")
    p.add_argument("path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.path)
        cfg = RunConfig.load(args.config, args.overrides, args.seed, args.out)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.task)
        if args.command == "infer":
            return cmd_infer(cfg, args.task, args.split, args.no_owel,
                             args.no_mscal, args.prompt_key, args.out_file)
        if args.command == "eval":
            return cmd_eval(cfg, args.task, args.detections, args.split, args.report)
        if args.command == "ablate":
            values = [v.strip() for v in args.values.split(",") if v.strip()]
            return cmd_ablate(cfg, args.task, args.parameter, values,
                              args.split, args.retrain)
        raise ConfigError(f"unknown command {args.command!r}")
    except OpenWorldKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
