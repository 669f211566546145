"""Command-line surface: world generation, task-by-task training, inference
with ablation toggles, metric reports, and hyperparameter sweeps.

Configuration is an INI-style file with sections; every key can be
overridden on the command line with `--set section.key=value`. All
randomness derives from the single seed in [run].
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import detection as det
from . import owod_eval as ev
from .embedding_space import (
    ClassEmbeddingRegistry,
    GENERIC_OBJECT_KEY,
    prompt_matrix,
    register_task,
)
from .errors import ConfigError, MissingCheckpoint, OpenWorldKitError, read_json
from .mscal import freeze_class_modules, ood_score_map
from .synthetic_world import (
    TASK_SPLIT_NAME,
    WorldSpec,
    export_split,
    export_world,
    load_split,
    load_world,
    make_world,
)
from .training import (
    CONFIG_FILE,
    TrainConfig,
    finalize_task,
    load_checkpoint,
    save_checkpoint,
    train_task,
)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_gate_mode(text: str) -> str:
    if text not in det.GATE_MODES:
        raise ValueError(f"not a gate mode {det.GATE_MODES}: {text!r}")
    return text


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_float_pair(text: str) -> tuple[float, float]:
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers: {text!r}")
    return parts[0], parts[1]


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_pyramid(text: str) -> tuple[tuple[int, int, float], ...]:
    layers = []
    for tok in text.split(","):
        h, w, s = tok.strip().split("x")
        layers.append((int(h), int(w), float(s)))
    return tuple(layers)


def _parse_size_ranges(text: str) -> tuple[tuple[float, float], ...]:
    ranges = []
    for tok in text.split(","):
        lo, hi = tok.strip().split("-")
        ranges.append((float(lo), float(hi)))
    return tuple(ranges)


def _parse_splits(text: str) -> tuple[tuple[str, int], ...]:
    out = []
    for tok in text.split(","):
        name, count = tok.strip().split(":")
        out.append((name, int(count)))
    return tuple(out)


# section -> key -> (parser, default-as-string)
SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "seed": (int, "0"),
        "out_dir": (str, "out"),
    },
    "world": {
        "dim": (int, "16"),
        "known_per_task": (_parse_int_tuple, "5,5,5"),
        "n_nood": (int, "4"),
        "n_food": (int, "4"),
        "nood_angle": (float, "0.25"),
        "food_min_angle": (float, "1.2"),
        "noise_sigma": (float, "0.1"),
        "text_noise_sigma": (float, "0.05"),
        "pyramid_layers": (_parse_pyramid, "16x16x16,8x8x32"),
        "level_thresholds": (_parse_float_tuple, "0,64"),
        "box_size_ranges": (_parse_size_ranges, "20-56,72-150"),
        "boxes_per_scene": (_parse_int_tuple, "3,6"),
        "scenes_per_split": (_parse_splits, "train:60,cal:20,test:40"),
        "unknown_box_ratio": (float, "0.3"),
        "box_jitter": (float, "0.0"),
        "background_max_cos": (float, "0.3"),
        "known_angle_range": (_parse_float_pair, "1.05,1.3"),
        "food_axis_angle": (float, "1.55"),
        "food_spread": (float, "0.2"),
        "foodward_cap": (float, "0.15"),
        "clearance_slack": (float, "0.1"),
        "food_alignment_alpha": (float, "0.4"),
        "min_unknown_margin": (float, "0.05"),
        "max_draws": (int, "1000000"),
    },
    "train": {
        "learning_rate": (float, "1e-4"),
        "weight_decay": (float, "0.0125"),
        "batch_size": (int, "16"),
        "steps_per_task": (int, "500"),
        "tau": (float, "0.1"),
        "alpha": (float, "0.4"),
        "neg_cap": (int, "10"),
        "logit_scale": (float, "10"),
        "quantile": (float, "0.95"),
        "det_weight": (float, "1.0"),
        "mscal_weight": (float, "1.0"),
        "bn_momentum": (float, "0.1"),
        "normalize_projection": (_parse_bool, "true"),
        "share_anchor": (_parse_bool, "false"),
    },
    "detect": {
        "conf_threshold": (float, "0.25"),
        "nms_iou": (float, "0.7"),
        "class_wise_nms": (_parse_bool, "true"),
        "ood_gate_mode": (_parse_gate_mode, "relabel"),
    },
    "eval": {
        "iou_threshold": (float, "0.5"),
        "recall_level": (float, "0.8"),
    },
    "thresholds": {
        "min_map_both": (float, ""),
        "min_u_recall": (float, ""),
        "max_a_ose": (int, ""),
        "max_wi": (float, ""),
    },
}


class RunConfig:
    """Resolved configuration: raw strings plus typed accessors."""

    def __init__(self, raw: dict[str, dict[str, str]]):
        self.raw = raw

    @classmethod
    def load(cls, config_path: str | None, overrides: list[str] | None = None,
             seed: int | None = None, out_dir: str | None = None) -> "RunConfig":
        raw = {section: {k: default for k, (_, default) in keys.items()}
               for section, keys in SCHEMA.items()}
        if config_path:
            parser = configparser.ConfigParser()
            parser.optionxform = str
            try:
                read = parser.read(config_path)
                if not read:
                    raise ConfigError(f"config file not found: {config_path}")
                for section in parser.sections():
                    if section not in SCHEMA:
                        raise ConfigError(f"unknown config section [{section}]")
                    for key, value in parser.items(section):
                        if key not in SCHEMA[section]:
                            raise ConfigError(f"unknown config key {section}.{key}")
                        raw[section][key] = value
            except (configparser.Error, UnicodeDecodeError) as exc:
                raise ConfigError(f"unreadable config file {config_path}: {exc}") from exc
        for item in overrides or []:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override must look like section.key=value: {item!r}")
            dotted, value = item.split("=", 1)
            section, key = dotted.split(".", 1)
            if section not in SCHEMA or key not in SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            raw[section][key] = value
        if seed is not None:
            raw["run"]["seed"] = str(seed)
        if out_dir is not None:
            raw["run"]["out_dir"] = out_dir
        cfg = cls(raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for section, keys in self.raw.items():
            for key, value in keys.items():
                parser_fn, default = SCHEMA[section][key]
                if value == "":
                    if default == "":
                        continue  # an optional key left unset
                    raise ConfigError(f"{section}.{key} needs a value")
                try:
                    parser_fn(value)
                except Exception as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {value!r} ({exc})")

    def get(self, section: str, key: str):
        value = self.raw[section][key]
        if value == "":
            return None
        return SCHEMA[section][key][0](value)

    @property
    def seed(self) -> int:
        return self.get("run", "seed")

    @property
    def out_dir(self) -> Path:
        return Path(self.get("run", "out_dir"))

    def world_spec(self) -> WorldSpec:
        try:
            return WorldSpec(**{key: self.get("world", key) for key in self.raw["world"]})
        except ValueError as exc:
            raise ConfigError(f"bad [world] config: {exc}") from exc

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(seed=self.seed,
                               **{key: self.get("train", key) for key in self.raw["train"]})
        except ValueError as exc:
            raise ConfigError(f"bad [train] config: {exc}") from exc

    def echo(self) -> dict:
        """The exact resolved configuration, as strings."""
        return {section: dict(keys) for section, keys in self.raw.items()}


def _world_dir(cfg: RunConfig) -> Path:
    return cfg.out_dir / "world"


def _checkpoint_dir(cfg: RunConfig, task_id: int) -> Path:
    return cfg.out_dir / "checkpoints" / f"task_{task_id}"


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: RunConfig) -> int:
    spec = cfg.world_spec()
    world = make_world(spec, cfg.seed)
    out = _world_dir(cfg)
    export_world(world, out)
    for split, _ in spec.scenes_per_split:
        export_split(world, split, out)
    print(f"world written to {out}: {len(spec.known_per_task)} tasks, "
          f"{spec.num_known} known classes, {spec.num_unknown} unknown classes")
    return 0


class _TaskData:
    def __init__(self, geometry, train_scenes, cal_scenes):
        self.geometry = geometry
        self.train_scenes = train_scenes
        self.cal_scenes = cal_scenes


# [train] keys every task of a run shares: they set how each module scales
# its anchor similarities, and theta is calibrated over old and new modules
# together
_CARRIED_TRAIN_KEYS = ("tau", "normalize_projection", "share_anchor")


def cmd_train(cfg: RunConfig, task_id: int) -> int:
    world = load_world(_world_dir(cfg))
    new_names = world.task_split().current_classes(task_id)
    train_cfg = cfg.train_config()

    if task_id == 1:
        registry = ClassEmbeddingRegistry(
            entries=(), generic_object=world.generic_object, alpha=train_cfg.alpha)
        modules = []
        prev_dir, unchanged = None, set()
    else:
        prev_dir = _checkpoint_dir(cfg, task_id - 1)
        if not prev_dir.exists():
            raise MissingCheckpoint(f"train task {task_id - 1} first: {prev_dir} missing")
        previous = read_json(prev_dir / CONFIG_FILE, "checkpoint file",
                             lambda payload: {k: payload[k] for k in _CARRIED_TRAIN_KEYS},
                             missing=MissingCheckpoint)
        for key, value in previous.items():
            if getattr(train_cfg, key) != value:
                raise ConfigError(
                    f"train.{key}={getattr(train_cfg, key)!r}, but task {task_id - 1} "
                    f"was trained with train.{key}={value!r}; every task of a run "
                    f"must use the same value")
        registry, modules, _ = load_checkpoint(prev_dir)
        unchanged = {m.class_id for m in modules if m.frozen}
        registry = replace(registry, alpha=train_cfg.alpha)
        freeze_class_modules(modules, task_id - 1)

    registry = register_task(registry, [(n, world.text_embeddings[n]) for n in new_names])

    data = _TaskData(
        geometry=world.geometry,
        train_scenes=load_split(world, "train", _world_dir(cfg)),
        cal_scenes=load_split(world, "cal", _world_dir(cfg)),
    )
    registry, modules, log = train_task(data, registry, modules, train_cfg, task_id)
    registry, modules = finalize_task(registry, modules, task_id)
    ckpt = _checkpoint_dir(cfg, task_id)
    save_checkpoint(ckpt, registry, modules, log.theta, train_cfg, log,
                    previous=prev_dir, unchanged=unchanged)
    print(f"task {task_id}: {registry.num_known} embeddings, {len(modules)} modules, "
          f"theta={log.theta:.6f} -> {ckpt}")
    return 0


def cmd_infer(cfg: RunConfig, task_id: int, split: str, no_owel: bool,
              no_mscal: bool, prompt_key: str | None = None,
              out_file: str | None = None) -> int:
    ckpt = _checkpoint_dir(cfg, task_id)
    registry, modules, theta = load_checkpoint(ckpt)
    registry = replace(registry, alpha=cfg.train_config().alpha)
    world = load_world(_world_dir(cfg))
    if prompt_key is not None:
        embeddings = world.text_embeddings | {GENERIC_OBJECT_KEY: world.generic_object}
        if prompt_key not in embeddings:
            raise ConfigError(f"prompt key {prompt_key!r} not in embedding file")
        registry = replace(registry, generic_object=embeddings[prompt_key])

    if no_owel:
        # generic-object prompt passes through untouched as the unknown row
        prompts = np.vstack([np.stack([e.embedding for e in registry.entries]),
                             registry.generic_object[None, :]])
    else:
        prompts = prompt_matrix(registry, include_unknown=True)
    if no_mscal:
        theta = float("inf")
    gate_mode = cfg.get("detect", "ood_gate_mode")

    results = []
    for scene in load_split(world, split, _world_dir(cfg)):
        scores = det.classify_locations(scene.pyramid, prompts,
                                        cfg.get("train", "logit_scale"))
        dets = det.decode_detections(scene.pyramid, scores,
                                     cfg.get("detect", "conf_threshold"),
                                     registry.num_known)
        dets = det.apply_ood_gate(dets, ood_score_map(modules, scene.pyramid), theta,
                                  mode=gate_mode)
        dets = det.nms(dets, cfg.get("detect", "nms_iou"),
                       cfg.get("detect", "class_wise_nms"))
        results.append((scene.scene_id, dets))

    if out_file is None:
        suffix = ""
        if no_owel:
            suffix += "_noowel"
        if no_mscal:
            suffix += "_nomscal"
        out_path = cfg.out_dir / "detections" / f"task{task_id}_{split}{suffix}.jsonl"
    else:
        out_path = Path(out_file)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    det.write_detections_jsonl(out_path, results, registry.names)
    total = sum(len(d) for _, d in results)
    print(f"{total} detections over {len(results)} scenes -> {out_path}")
    return 0


def cmd_eval(cfg: RunConfig, task_id: int, detections_path: str, split: str,
             report_path: str | None = None) -> int:
    world_dir = _world_dir(cfg)
    dets = det.read_detections_jsonl(detections_path)
    gts = ev.read_gt_jsonl(world_dir / "scenes" / split / "gt.jsonl")
    task_split = ev.load_task_split(world_dir / TASK_SPLIT_NAME)
    report = ev.evaluate_task(
        dets, gts, task_split, task_id,
        iou_thr=cfg.get("eval", "iou_threshold"),
        recall_level=cfg.get("eval", "recall_level"),
        config_echo=cfg.echo() | {"detections": str(detections_path), "split": split},
    )
    if report_path is None:
        base = cfg.out_dir / "reports"
        base.mkdir(parents=True, exist_ok=True)
        report_path = base / (Path(detections_path).stem + "_report.json")
    else:
        report_path = Path(report_path)
        report_path.parent.mkdir(parents=True, exist_ok=True)
    ev.write_report_json(report_path, report)
    ev.write_report_csv(Path(report_path).with_suffix(".csv"), [report])
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
    base.mkdir(parents=True, exist_ok=True)
    reports = []
    for value in values:
        tag = value.replace("/", "_")
        det_path = cfg.out_dir / "detections" / f"ablate_{parameter}_{tag}.jsonl"
        det_path.parent.mkdir(parents=True, exist_ok=True)
        if parameter == "alpha":
            sub = RunConfig({s: dict(k) for s, k in cfg.raw.items()})
            sub.raw["train"]["alpha"] = value
            sub.validate()
            cmd_infer(sub, task_id, split, no_owel=False, no_mscal=False,
                      out_file=str(det_path))
            eval_cfg = sub
        elif parameter == "prompt":
            cmd_infer(cfg, task_id, split, no_owel=False, no_mscal=False,
                      prompt_key=value, out_file=str(det_path))
            eval_cfg = cfg
        else:  # tau, retrain into a sandboxed output tree
            sub = RunConfig({s: dict(k) for s, k in cfg.raw.items()})
            sub.raw["train"]["tau"] = value
            sub.raw["run"]["out_dir"] = str(cfg.out_dir / f"ablate_tau_{tag}")
            sub.validate()
            Path(sub.raw["run"]["out_dir"]).mkdir(parents=True, exist_ok=True)
            if not (_world_dir(sub)).exists():
                cmd_gen(sub)
            for t in range(1, task_id + 1):
                cmd_train(sub, t)
            cmd_infer(sub, task_id, split, no_owel=False, no_mscal=False,
                      out_file=str(det_path))
            eval_cfg = sub
        report_path = base / f"{tag}_report.json"
        code = cmd_eval(eval_cfg, task_id, str(det_path), split,
                        report_path=str(report_path))
        if code != 0:
            return code
        with open(report_path, "r", encoding="utf-8") as fh:
            reports.append((value, json.load(fh)))

    summary = base / "sweep.csv"
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write("value,map_both,u_recall,wi,a_ose\n")
        for value, rep in reports:
            cells = [str(value)] + [ev.csv_cell(rep[k])
                                    for k in ("map_both", "u_recall", "wi", "a_ose")]
            fh.write(",".join(cells) + "\n")
    print(f"sweep over {parameter} ({len(reports)} rows) -> {summary}")
    return 0


def _report_from_json(raw) -> ev.EvalReport:
    return ev.EvalReport(
        task_id=raw["task_id"], map_prev=raw["map_prev"], map_curr=raw["map_curr"],
        map_both=raw["map_both"], u_recall=raw["u_recall"], wi=raw["wi"],
        a_ose=raw["a_ose"], per_class_ap=raw.get("per_class_ap", {}),
        config_echo=raw.get("config", {}),
    )


def cmd_report(report_path: str) -> int:
    print(ev.render_report(read_json(report_path, "report", _report_from_json)))
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
