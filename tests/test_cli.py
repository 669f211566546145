import dataclasses
import errno
import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from openworld_kit import cli
from openworld_kit.detection import columns_path
from openworld_kit.errors import ConfigError, write_json
from openworld_kit.mscal import init_module, module_from_payload, module_to_payload
from openworld_kit.synthetic_world import WorldSpec
from openworld_kit.training import TrainConfig

from oracles import (COLUMN_DAMAGE, assert_same_table, damage_column_file, parsed_table,
                     stored_table)

TINY_INI = """
[world]
dim = 8
known_per_task = 2,2
n_nood = 1
n_food = 0
known_angle_range = 0.7,1.1
pyramid_layers = 8x8x16,4x4x32
level_thresholds = 0,64
box_size_ranges = 20-56,72-120
boxes_per_scene = 2,4
scenes_per_split = train:6,cal:3,test:4

[train]
steps_per_task = 3
batch_size = 2
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.ini").write_text(TINY_INI)
    return tmp_path


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def trained(workdir):
    assert run("gen", "--config", "tiny.ini", "--seed", "0", "--out", "out") == 0
    assert run("train", "--config", "tiny.ini", "--seed", "0", "--out", "out",
               "--task", "1") == 0
    assert run("train", "--config", "tiny.ini", "--seed", "0", "--out", "out",
               "--task", "2") == 0
    return workdir


class TestRunConfig:
    def test_defaults_match_stated_values(self):
        cfg = cli.RunConfig.load(None)
        assert cfg.get("train", "alpha") == 0.4
        assert cfg.get("train", "learning_rate") == 1e-4
        assert cfg.get("train", "weight_decay") == 0.0125
        assert cfg.get("train", "batch_size") == 16
        assert cfg.get("detect", "conf_threshold") == 0.25
        assert cfg.get("detect", "nms_iou") == 0.7

    @pytest.mark.parametrize("section, spec", [("world", WorldSpec), ("train", TrainConfig)])
    def test_schema_defaults_equal_the_spec_defaults(self, section, spec):
        # the INI schema and the dataclasses each state the defaults
        cfg = cli.RunConfig.load(None)
        want = {f.name: f.default for f in dataclasses.fields(spec) if f.name != "seed"}
        assert {key: cfg.get(section, key) for key in cli.SCHEMA[section]} == want

    def test_unknown_key_in_file_rejected(self, workdir):
        (workdir / "bad.ini").write_text("[train]\nlearning_rat = 1\n")
        with pytest.raises(ConfigError):
            cli.RunConfig.load("bad.ini")

    def test_unknown_section_rejected(self, workdir):
        (workdir / "bad.ini").write_text("[nope]\nx = 1\n")
        with pytest.raises(ConfigError):
            cli.RunConfig.load("bad.ini")

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            cli.RunConfig.load(None, overrides=["train.typo=1"])

    def test_override_wins_over_file(self, workdir):
        cfg = cli.RunConfig.load("tiny.ini", overrides=["train.steps_per_task=9"])
        assert cfg.get("train", "steps_per_task") == 9

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            cli.RunConfig.load(None, overrides=["train.batch_size=three"])

    @pytest.mark.parametrize("override", [
        "world.dim=2", "world.pyramid_layers=16x16x32,8x8x16", "world.level_thresholds=64,0",
        "world.boxes_per_scene=3", "world.boxes_per_scene=6,3", "train.batch_size=0",
    ])
    def test_value_that_breaks_a_spec_is_a_config_error(self, override):
        with pytest.raises(ConfigError):
            cfg = cli.RunConfig.load(None, overrides=[override])
            cfg.world_spec()
            cfg.train_config()

    @pytest.mark.parametrize("override", [
        "train.normalize_projection=false", "train.normalize_projection=true",
        "detect.ood_gate_mode=relabel", "detect.ood_gate_mode=foo",
        "train.share_anchor=true", "train.share_anchor=false",
    ])
    def test_retired_key_is_an_unknown_key(self, override):
        # projections are always normalized, the gate always relabels and
        # every layer scores against its own anchor
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=f"unknown config key {key}$"):
            cli.RunConfig.load(None, overrides=[override])

    @pytest.mark.parametrize("data", [b"seed = 1\n", b"[run]\nseed = %(x\n",
                                      b"[run]\nseed = \xff\xfe\n"],
                             ids=["no-section-header", "bad-interpolation", "not-utf8"])
    def test_unreadable_file_rejected(self, workdir, data):
        (workdir / "bad.ini").write_bytes(data)
        with pytest.raises(ConfigError, match="bad.ini"):
            cli.RunConfig.load("bad.ini")

    def test_echo_reflects_resolved_strings(self, workdir):
        cfg = cli.RunConfig.load("tiny.ini", seed=7)
        echo = cfg.echo()
        assert echo["run"]["seed"] == 7
        assert echo["world"]["dim"] == 8
        assert echo["world"]["pyramid_layers"] == ((8, 8, 16.0), (4, 4, 32.0))
        assert echo["thresholds"]["max_a_ose"] is None


class TestPipeline:
    def test_gen_manifest_contents(self, workdir, capsys):
        assert run("gen", "--config", "tiny.ini", "--seed", "0", "--out", "out") == 0
        out = capsys.readouterr().out
        assert "2 tasks, 4 known classes, 1 unknown classes" in out
        manifest = json.loads((workdir / "out" / "world" / "manifest.json").read_text())
        assert len(manifest["classes"]) == 5
        # the task schedule lives in the class table and task_split.json only
        assert sorted(manifest) == ["classes", "format", "seed", "spec"]

    def test_default_spec_echo(self):
        from openworld_kit.synthetic_world import WorldSpec
        spec = WorldSpec()
        assert len(spec.known_per_task) == 3
        assert spec.num_known == 15
        assert spec.num_unknown == 8

    def test_gen_same_seed_identical_manifest(self, workdir):
        run("gen", "--config", "tiny.ini", "--seed", "0", "--out", "a")
        run("gen", "--config", "tiny.ini", "--seed", "0", "--out", "b")
        assert (workdir / "a/world/manifest.json").read_bytes() == \
            (workdir / "b/world/manifest.json").read_bytes()

    def test_gen_different_seed_differs(self, workdir):
        run("gen", "--config", "tiny.ini", "--seed", "1", "--out", "a")
        run("gen", "--config", "tiny.ini", "--seed", "2", "--out", "b")
        assert (workdir / "a/world/manifest.json").read_bytes() != \
            (workdir / "b/world/manifest.json").read_bytes()

    def test_train_requires_previous_checkpoint(self, workdir):
        run("gen", "--config", "tiny.ini", "--out", "out")
        assert run("train", "--config", "tiny.ini", "--out", "out", "--task", "2") == 1

    def test_checkpoint_layout(self, trained):
        ckpt = trained / "out" / "checkpoints" / "task_1"
        assert (ckpt / "registry.json").exists()
        assert (ckpt / "theta.json").exists()
        assert sorted(json.loads((ckpt / "config.json").read_text())) == [
            "alpha", "batch_size", "bn_momentum", "det_weight", "format", "learning_rate",
            "logit_scale", "mscal_weight", "neg_cap", "quantile", "seed",
            "steps_per_task", "tau", "weight_decay", "world_sha256"]
        assert (ckpt / "train_log.csv").exists()
        assert len(list((ckpt / "modules").glob("class_*.json"))) == 2
        ckpt2 = trained / "out" / "checkpoints" / "task_2"
        assert len(list((ckpt2 / "modules").glob("class_*.json"))) == 4

    def test_task1_files_frozen_into_task2(self, trained):
        a = (trained / "out/checkpoints/task_1/modules/class_000.json").read_bytes()
        b = (trained / "out/checkpoints/task_2/modules/class_000.json").read_bytes()
        assert a == b

    def test_frozen_module_files_are_copied_forward(self, workdir):
        # a task-1 module file re-indented by hand (same payload, other
        # bytes) reaches task 2 as it is: frozen files are copied, not
        # re-encoded
        args = ("--config", "tiny.ini", "--seed", "0", "--out", "out")
        assert run("gen", *args) == 0
        assert run("train", *args, "--task", "1") == 0
        path = workdir / "out/checkpoints/task_1/modules/class_000.json"
        path.write_text(json.dumps(json.loads(path.read_text()), indent=3, sort_keys=True))
        assert run("train", *args, "--task", "2") == 0
        assert (workdir / "out/checkpoints/task_2/modules/class_000.json").read_bytes() == \
            path.read_bytes()

    def test_loaded_checkpoint_is_frozen_and_copied_forward(self, trained):
        # everything a checkpoint holds loads frozen, and the next task copies
        # every module file it loaded byte for byte
        from openworld_kit.training import load_checkpoint
        task1, task2 = (trained / "out/checkpoints" / f"task_{t}" for t in (1, 2))
        registry, modules, _ = load_checkpoint(task1)
        assert all(e.frozen for e in registry.entries) and all(m.frozen for m in modules)
        assert [m.class_id for m in modules] == [0, 1]
        for name in ("class_000.json", "class_001.json"):
            assert (task2 / "modules" / name).read_bytes() == \
                (task1 / "modules" / name).read_bytes()

    def test_rerun_with_fewer_classes_drops_their_modules(self, workdir):
        # a 3+3-class run, then a 2+2-class world trained into the same --out:
        # task 2's checkpoint holds and loads exactly the 4 registered classes
        args = ("--config", "tiny.ini", "--seed", "0", "--out", "out")
        wide = ("--set", "world.known_per_task=3,3")
        assert run("gen", *args, *wide) == 0
        for task in ("1", "2"):
            assert run("train", *args, *wide, "--task", task) == 0
        ckpt = workdir / "out" / "checkpoints" / "task_2"
        assert len(list((ckpt / "modules").glob("class_*.json"))) == 6
        assert run("gen", *args) == 0
        for task in ("1", "2"):
            assert run("train", *args, "--task", task) == 0
        assert sorted(p.name for p in (ckpt / "modules").glob("class_*.json")) == [
            f"class_{i:03d}.json" for i in range(4)]
        from openworld_kit.training import load_checkpoint
        registry, modules, _ = load_checkpoint(ckpt)
        assert [m.class_id for m in modules] == list(range(registry.num_known)) == [0, 1, 2, 3]
        assert run("infer", *args, "--task", "2", "--split", "test") == 0

    def test_infer_and_eval(self, trained, capsys):
        assert run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
                   "--split", "test") == 0
        dets = trained / "out" / "detections" / "task2_test.jsonl"
        assert dets.exists()
        n_lines = len(dets.read_text().splitlines())
        assert "detections over 4 scenes" in capsys.readouterr().out
        assert n_lines > 0
        assert run("eval", "--config", "tiny.ini", "--out", "out", "--task", "2",
                   "--detections", str(dets), "--split", "test") == 0
        report = json.loads(
            (trained / "out/reports/task2_test_report.json").read_text())
        assert report["task_id"] == 2
        assert report["config"]["run"]["seed"] == 0

    def test_infer_rerun_is_byte_identical(self, trained):
        run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--out-file", "a.jsonl")
        run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--out-file", "b.jsonl")
        assert (trained / "a.jsonl").read_bytes() == (trained / "b.jsonl").read_bytes()

    def test_no_mscal_changes_only_labels_and_ood(self, trained):
        # the gate contract operates before suppression: same boxes, same
        # confidences, same sources; only labels and ood fields may differ
        from openworld_kit.detection import apply_ood_gate, classify_locations, decode_detections
        from openworld_kit.embedding_space import prompt_matrix, pseudo_unknown_embedding
        from openworld_kit.mscal import fold_modules, ood_score_map
        from openworld_kit.synthetic_world import load_split, load_world
        from openworld_kit.training import load_checkpoint

        world = load_world(trained / "out" / "world")
        registry, modules, theta = load_checkpoint(trained / "out/checkpoints/task_2")
        scene = load_split(world, "test", trained / "out" / "world")[0]
        prompts = prompt_matrix(registry, pseudo_unknown_embedding(
            [e.embedding for e in registry.entries], world.generic_object, 0.4))
        scores = classify_locations(scene.pyramid, prompts, 10.0)
        dets = decode_detections(scene.pyramid, scores, 0.25, registry.num_known)
        smap = ood_score_map(fold_modules(modules), scene.pyramid)
        gated = apply_ood_gate(dets, smap, theta)
        ungated = apply_ood_gate(dets, smap, float("inf"))
        assert len(gated) == len(ungated)
        for name in ("boxes", "confidence", "source", "ood"):
            np.testing.assert_array_equal(getattr(gated, name), getattr(ungated, name))
        assert (gated.labels != ungated.labels).sum() > 0

    def test_empty_split_gives_empty_file(self, trained):
        # point the split at an empty directory by evaluating zero scenes
        (trained / "out" / "world" / "scenes" / "empty").mkdir()
        from openworld_kit.owod_eval import write_gt_jsonl
        write_gt_jsonl(trained / "out/world/scenes/empty/gt.jsonl", [])
        assert run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
                   "--split", "empty", "--out-file", "empty.jsonl") == 0
        assert (trained / "empty.jsonl").read_text() == ""


@pytest.fixture(scope="class")
def trained_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("infer")
    (root / "tiny.ini").write_text(TINY_INI)
    common = ["--config", str(root / "tiny.ini"), "--seed", "0", "--out", str(root / "out")]
    assert run("gen", *common) == 0
    for task in ("1", "2"):
        assert run("train", *common, "--task", task) == 0
    empty = root / "out" / "world" / "scenes" / "empty"
    empty.mkdir()
    from openworld_kit.owod_eval import write_gt_jsonl
    write_gt_jsonl(empty / "gt.jsonl", [])
    return root, common


def oracle_detections_file(out, task_id, split, no_owel=False, no_mscal=False,
                           nms_iou=0.7, class_wise=True):
    """The detections file of `infer` at the default logit scale and
    confidence threshold, built by the scalar path: one object per
    candidate, NMS as the greedy loop, each line from the json encoder."""
    from openworld_kit.detection import classify_locations
    from openworld_kit.embedding_space import prompt_matrix, pseudo_unknown_embedding
    from openworld_kit.mscal import fold_modules, ood_score_map
    from openworld_kit.synthetic_world import load_split, load_world
    from openworld_kit.training import load_checkpoint
    from oracles import oracle_decode, oracle_format_detection_line, oracle_gate, oracle_nms

    registry, modules, theta = load_checkpoint(out / "checkpoints" / f"task_{task_id}")
    world = load_world(out / "world")
    if no_owel:
        prompts = np.vstack([np.stack([e.embedding for e in registry.entries]),
                             world.generic_object[None, :]])
    else:
        prompts = prompt_matrix(registry, pseudo_unknown_embedding(
            [e.embedding for e in registry.entries], world.generic_object, 0.4))
    if no_mscal:
        theta = float("inf")
    lines = []
    for scene in load_split(world, split, out / "world"):
        scores = classify_locations(scene.pyramid, prompts, 10.0)
        rows = oracle_decode(scene.pyramid, scores, 0.25, registry.num_known)
        rows = oracle_gate(rows, ood_score_map(fold_modules(modules), scene.pyramid), theta)
        rows = oracle_nms(rows, nms_iou, class_wise)
        lines += [oracle_format_detection_line(scene.scene_id, d, registry.names) + "\n"
                  for d in rows]
    return "".join(lines)


class TestInferEqualsScalarPath:
    @pytest.mark.parametrize("args, oracle", [
        ([], {}),
        (["--no-mscal"], {"no_mscal": True}),
        (["--no-owel", "--no-mscal"], {"no_owel": True, "no_mscal": True}),
        (["--set", "detect.class_wise_nms=false"], {"class_wise": False}),
        (["--set", "detect.nms_iou=0.3"], {"nms_iou": 0.3}),
        (["--split", "empty"], {"split": "empty"}),
    ], ids=["gated", "no-mscal", "base", "not-class-wise", "nms-iou-0.3",
            "empty-split"])
    def test_file_is_byte_identical(self, trained_world, args, oracle):
        root, common = trained_world
        path = root / "dets.jsonl"
        assert run("infer", *common, "--task", "2", "--out-file", str(path), *args) == 0
        oracle = {"split": "test"} | oracle
        want = oracle_detections_file(root / "out", 2, **oracle)
        assert path.read_bytes() == want.encode("utf-8")
        if oracle["split"] == "test":
            labels = {json.loads(line)["label"] for line in want.splitlines()}
            assert "unknown" in labels and len(labels) > 1

    @pytest.mark.parametrize("args, oracle", [
        ([], {}),
        (["--no-owel", "--no-mscal"], {"no_owel": True, "no_mscal": True}),
    ], ids=["gated", "base"])
    def test_chunks_write_the_bytes_of_per_scene_infer(self, trained_world, monkeypatch,
                                                       args, oracle):
        # the test split's 4 scenes in chunks of 1 (per scene), 2, 3 and 5
        # (the last two leave a short chunk): the same detections file and
        # column file, at one worker and at three
        from openworld_kit import parallel
        root, common = trained_world
        want = oracle_detections_file(root / "out", 2, "test", **oracle).encode("utf-8")
        files = []
        for chunk in (1, 2, 3, 5):
            for workers in (1, 3):
                path = root / f"chunk{chunk}_{workers}.jsonl"
                monkeypatch.setattr(cli, "INFER_CHUNK", chunk)
                monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
                assert run("infer", *common, "--task", "2", "--out-file", str(path),
                           *args) == 0
                files.append((path.read_bytes(), columns_path(path).read_bytes()))
        assert files[0][0] == want
        assert all(f == files[0] for f in files)

    def test_failing_blob_of_a_later_chunk_is_named(self, trained_world, monkeypatch,
                                                    capsys):
        # the first blob that fails to read, in split order, raises its own
        # error in the parent, whichever process read its chunk
        from openworld_kit import parallel
        root, common = trained_world
        scenes = root / "out" / "world" / "scenes" / "test"
        saved = {name: (scenes / name).read_bytes() for name in ("test-0001.pyr",
                                                                 "test-0003.pyr")}
        try:
            for name in saved:
                (scenes / name).write_bytes(saved[name][:40])
            for chunk in (1, 2, 5):
                for workers in (1, 2, 3):
                    monkeypatch.setattr(cli, "INFER_CHUNK", chunk)
                    monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
                    capsys.readouterr()
                    assert run("infer", *common, "--task", "2",
                               "--out-file", str(root / "torn.jsonl")) == 1
                    err = capsys.readouterr().err
                    assert err.startswith("error: truncated pyramid blob")
                    assert err.count("\n") == 1 and "test-0001.pyr]" in err
        finally:
            for name, data in saved.items():
                (scenes / name).write_bytes(data)
        assert not (root / "torn.jsonl").exists()

    def test_folds_are_built_once_per_call(self, trained_world, monkeypatch):
        # one infer folds the modules once and scores every chunk of scenes
        # against those folds, with the bytes of a fresh fold for each
        # chunk; the spies count in one process, since calls in forked
        # children are lost to them (the folding itself happens before any
        # fork)
        from openworld_kit import mscal, parallel
        from openworld_kit.synthetic_world import load_split, load_world
        root, common = trained_world
        world_dir = root / "out" / "world"
        scenes = len(load_split(load_world(world_dir), "test", world_dir))
        built, scored = [], []

        def fold_spy(modules):
            built.append(len(modules))
            return mscal.fold_modules(modules)

        def score_spy(folds, pyramid):
            scored.append(len(folds))
            return mscal.ood_score_map(folds, pyramid)
        with monkeypatch.context() as pinned:
            pinned.setattr(parallel, "cpu_count", lambda: 1)
            pinned.setattr(cli, "fold_modules", fold_spy)
            pinned.setattr(cli, "ood_score_map", score_spy)
            assert run("infer", *common, "--task", "2",
                       "--out-file", str(root / "once.jsonl")) == 0
        chunks = -(-scenes // cli.INFER_CHUNK)
        assert scenes >= 2 and built == [4] and scored == [4] * chunks

        def fresh_fold_spy(modules, pyramid):
            return mscal.ood_score_map(mscal.fold_modules(modules), pyramid)
        monkeypatch.setattr(cli, "fold_modules", lambda modules: modules)
        monkeypatch.setattr(cli, "ood_score_map", fresh_fold_spy)
        assert run("infer", *common, "--task", "2", "--out-file", str(root / "fresh.jsonl")) == 0
        assert (root / "once.jsonl").read_bytes() == (root / "fresh.jsonl").read_bytes()


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# the benchmark's train-wide world: dim 32, 10/10/10 known classes
TRAIN_WIDE = ("world.dim=32", "world.known_per_task=10,10,10", "world.n_food=12",
              "world.scenes_per_split=train:60,cal:20,test:20")


@pytest.mark.parametrize("settings", [(), TRAIN_WIDE], ids=["default", "train-wide"])
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, settings):
    # gen and infer fan their scenes out over the CPUs; every file they
    # write is the same at 1, 2 and 3 worker processes
    from openworld_kit import parallel
    common = ["--seed", "0", "--set", "train.steps_per_task=2"]
    common += [arg for item in settings for arg in ("--set", item)]

    def at(workers, *argv):
        monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
        assert run(*argv, *common) == 0

    for workers in (1, 2, 3):
        at(workers, "gen", "--out", str(tmp_path / f"run{workers}"))
    one = tree_bytes(tmp_path / "run1")
    assert len(one) > 100
    assert tree_bytes(tmp_path / "run2") == one and tree_bytes(tmp_path / "run3") == one

    out = str(tmp_path / "run1")
    for task in ("1", "2", "3"):
        at(1, "train", "--out", out, "--task", task)
    for workers in (1, 2, 3):
        at(workers, "infer", "--out", out, "--task", "3",
           "--out-file", str(tmp_path / f"dets{workers}.jsonl"))
    dets = (tmp_path / "dets1.jsonl").read_bytes()
    assert dets.count(b"\n") > 100
    assert (tmp_path / "dets2.jsonl").read_bytes() == dets
    assert (tmp_path / "dets3.jsonl").read_bytes() == dets
    columns = columns_path(tmp_path / "dets1.jsonl").read_bytes()
    assert columns_path(tmp_path / "dets2.jsonl").read_bytes() == columns
    assert columns_path(tmp_path / "dets3.jsonl").read_bytes() == columns


def oracle_report_files(root, common, task_id, det_path, split="test"):
    """The report JSON and CSV bytes of `eval`, from the oracle metrics over
    records parsed with the json module, not the library readers."""
    from openworld_kit.owod_eval import (
        EvalReport, load_task_split, write_report_csv, write_report_json)
    from oracles import (
        det, gt, oracle_a_ose, oracle_class_ap, oracle_u_recall, oracle_wi)
    from openworld_kit.errors import UndefinedOperatingPoint

    def records(path):
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]

    dets = [det(o["scene_id"], (o["x1"], o["y1"], o["x2"], o["y2"]), o["label"],
                o["confidence"], o["ood"]) for o in records(det_path)]
    world = root / "out" / "world"
    gts = [gt(o["scene_id"], (o["x1"], o["y1"], o["x2"], o["y2"]), o["class_name"])
           for o in records(world / "scenes" / split / "gt.jsonl")]
    task_split = load_task_split(world / "task_split.json")
    prev = task_split.previous_classes(task_id)
    curr = task_split.current_classes(task_id)
    per_class = {n: oracle_class_ap(dets, gts, n, 0.5) for n in prev + curr}

    def mean(names):
        defined = [per_class[n] for n in names if per_class[n] is not None]
        return sum(defined) / len(defined) if defined else None

    try:
        wi = oracle_wi(dets, gts, prev + curr, 0.8, 0.5)
    except UndefinedOperatingPoint:
        wi = None
    cfg = cli.RunConfig.load(common[1], [], int(common[3]), common[5])
    report = EvalReport(
        task_id=task_id, map_prev=mean(prev) if prev else None,
        map_curr=mean(curr) if curr else None, map_both=mean(prev + curr),
        u_recall=oracle_u_recall(dets, gts, prev + curr, 0.5), wi=wi,
        a_ose=oracle_a_ose(dets, gts, prev + curr, 0.5), per_class_ap=per_class,
        config=cfg.echo() | {"detections": str(det_path), "split": split})
    with open(root / "oracle.json", "w", encoding="utf-8") as fh:
        write_report_json(fh, report)
    with open(root / "oracle.csv", "w", encoding="utf-8") as fh:
        write_report_csv(fh, [report])
    return (root / "oracle.json").read_bytes(), (root / "oracle.csv").read_bytes()


class TestEvalEqualsScalarPath:
    @pytest.mark.parametrize("args", [[], ["--no-mscal"], ["--no-owel", "--no-mscal"]],
                             ids=["gated", "no-mscal", "base"])
    def test_report_is_byte_identical(self, trained_world, args):
        root, common = trained_world
        det_path = root / "eval_dets.jsonl"
        assert run("infer", *common, "--task", "2", "--out-file", str(det_path), *args) == 0
        report = root / "eval_report.json"
        run("eval", *common, "--task", "2", "--detections", str(det_path),
            "--split", "test", "--report", str(report))
        want_json, want_csv = oracle_report_files(root, common, 2, det_path)
        assert report.read_bytes() == want_json
        assert report.with_suffix(".csv").read_bytes() == want_csv
        assert json.loads(want_json)["u_recall"] is not None

    @pytest.mark.parametrize("task", ["1", "2"])
    @pytest.mark.parametrize("args", [[], ["--no-mscal"], ["--no-owel", "--no-mscal"]],
                             ids=["gated", "no-mscal", "base"])
    def test_report_renders_what_eval_printed(self, trained_world, capsys, args, task):
        """`report` reads back the report `eval` wrote as the one record it
        was written from: it renders what `eval` printed, and written again
        it keeps its bytes."""
        root, common = trained_world
        det_path = root / f"render_dets_{task}.jsonl"
        assert run("infer", *common, "--task", task, "--out-file", str(det_path), *args) == 0
        report = root / "render_report.json"
        capsys.readouterr()
        assert run("eval", *common, "--task", task, "--detections", str(det_path),
                   "--report", str(report)) == 0
        printed = capsys.readouterr().out
        assert run("report", str(report)) == 0
        assert capsys.readouterr().out + f"report -> {report}\n" == printed
        with open(report, encoding="utf-8") as fh:
            back = cli.ev.EvalReport(**json.load(fh))
        with open(root / "again.json", "w", encoding="utf-8") as fh:
            cli.ev.write_report_json(fh, back)
        assert (root / "again.json").read_bytes() == report.read_bytes()


class TestEvalRefusesStrayDetections:
    """`eval` scores a detections file only against a split that holds its
    scenes, at a task that knows its labels; anything else is a one-line
    error naming the detection's line, and no report is written."""

    @staticmethod
    def line(scene_id, label):
        return json.dumps({"scene_id": scene_id, "label": label, "x1": 0.0, "y1": 0.0,
                           "x2": 8.0, "y2": 8.0, "confidence": 0.5, "ood": 0.0})

    def eval(self, trained_world, path, task, split):
        root, common = trained_world
        return run("eval", *common, "--task", str(task), "--split", split,
                   "--detections", str(path), "--report", str(root / "stray_report.json"))

    def assert_refused(self, trained_world, capsys, *needles):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for needle in needles:
            assert needle in err, err
        assert not (trained_world[0] / "stray_report.json").exists()

    def test_detections_of_another_split(self, trained_world, capsys):
        root, common = trained_world
        path = root / "test_dets.jsonl"
        assert run("infer", *common, "--task", "2", "--split", "test",
                   "--out-file", str(path)) == 0
        first = json.loads(path.read_text().splitlines()[0])["scene_id"]
        capsys.readouterr()
        assert self.eval(trained_world, path, 2, "cal") == 1
        self.assert_refused(trained_world, capsys, f"detection of scene {first!r}",
                            "split 'cal'", f"{path}:1]")

    def test_first_stray_scene_is_named(self, trained_world, capsys):
        path = trained_world[0] / "mixed.jsonl"
        path.write_text("\n".join([self.line("cal-0000", "unknown"), "",
                                   self.line("test-0003", "unknown"),
                                   self.line("train-0000", "unknown")]) + "\n")
        assert self.eval(trained_world, path, 2, "cal") == 1
        self.assert_refused(trained_world, capsys, "scene 'test-0003'", f"{path}:3]")

    @pytest.mark.parametrize("label", ["zebra", "task-2 class"])
    def test_label_not_known_at_the_task(self, trained_world, capsys, label):
        from openworld_kit.owod_eval import load_task_split
        root, _ = trained_world
        if label == "task-2 class":
            label = load_task_split(root / "out/world/task_split.json").current_classes(2)[0]
        path = root / "labels.jsonl"
        path.write_text(self.line("test-0000", "unknown") + "\n"
                        + self.line("test-0001", label) + "\n")
        assert self.eval(trained_world, path, 1, "test") == 1
        self.assert_refused(trained_world, capsys, f"label {label!r}", "known at task 1",
                            f"{path}:2]")

    @pytest.mark.parametrize("split", ["test", "cal"])
    def test_empty_file_is_legal(self, trained_world, split):
        # no detection names a scene or a label, so there is nothing to refuse
        root, _ = trained_world
        path = root / "none.jsonl"
        path.write_text("")
        assert self.eval(trained_world, path, 2, split) == 0
        report = json.loads((root / "stray_report.json").read_text())
        (root / "stray_report.json").unlink()
        (root / "stray_report.csv").unlink()
        assert (report["map_both"], report["a_ose"]) == (0.0, 0)


class TestColumnFile:
    """`infer` writes the table of each detections file to a column file
    beside it. `eval` scores that table only while the file holds the bytes
    `infer` wrote; any other file, or a damaged column file, scores as the
    parse of the file alone."""

    @pytest.mark.parametrize("args", [
        [], ["--no-mscal"], ["--no-owel"], ["--no-owel", "--no-mscal"],
        ["--prompt-key", "object"], ["--split", "cal"], ["--split", "empty"],
    ], ids=["gated", "no-mscal", "no-owel", "base", "prompt-key", "cal", "empty"])
    def test_stored_table_equals_the_parse(self, trained_world, args):
        root, common = trained_world
        path = root / "columns.jsonl"
        assert run("infer", *common, "--task", "2", "--out-file", str(path), *args) == 0
        assert_same_table(stored_table(path), parsed_table(path))
        assert (len(parsed_table(path)) == 0) == (args == ["--split", "empty"])

    def test_stored_table_of_ablate_equals_the_parse(self, trained_world):
        root, common = trained_world
        assert run("ablate", *common, "--task", "2", "--parameter", "alpha",
                   "--values", "0.2,0.8") == 0
        for value in ("0.2", "0.8"):
            path = root / "out" / "detections" / f"ablate_alpha_{value}.jsonl"
            assert_same_table(stored_table(path), parsed_table(path))

    def scored(self, trained_world, path, name):
        """`eval`'s exit code, stderr and report bytes (JSON, CSV) for `path`."""
        root, common = trained_world
        report = root / f"{name}.json"
        code = run("eval", *common, "--task", "2", "--detections", str(path),
                   "--report", str(report))
        if code != 0:
            return code, None
        return code, (report.read_bytes(), report.with_suffix(".csv").read_bytes())

    def inferred(self, trained_world, name):
        root, common = trained_world
        path = root / f"{name}.jsonl"
        assert run("infer", *common, "--task", "2", "--out-file", str(path)) == 0
        return path

    @pytest.mark.parametrize("edit", ["deleted-line", "changed-digit"])
    def test_edited_file_scores_as_without_its_column_file(self, trained_world, edit):
        path = self.inferred(trained_world, edit)
        lines = path.read_text().splitlines(keepends=True)
        if edit == "deleted-line":
            del lines[len(lines) // 2]
        else:
            # the last digit of the first detection's confidence
            line = lines[0]
            end = line.index(", ", line.index('"confidence": '))
            lines[0] = line[:end - 1] + str((int(line[end - 1]) + 1) % 10) + line[end:]
        path.write_text("".join(lines))
        with_columns = self.scored(trained_world, path, "with")
        columns_path(path).unlink()
        assert with_columns == self.scored(trained_world, path, "without")
        assert with_columns[0] == 0

    def test_label_renamed_to_a_non_class_is_refused(self, trained_world, capsys):
        path = self.inferred(trained_world, "renamed")
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        lines[1] = lines[1].replace(json.dumps(record["label"]), '"zebra"')
        path.write_text("".join(lines))
        capsys.readouterr()
        errors = []
        for name in ("with", "without"):
            assert self.scored(trained_world, path, f"renamed_{name}") == (1, None)
            errors.append(capsys.readouterr().err)
            columns_path(path).unlink(missing_ok=True)
        assert errors[0] == errors[1]
        assert errors[0].count("\n") == 1 and "'zebra'" in errors[0] and f"{path}:2]" in errors[0]

    @pytest.mark.parametrize("damage", COLUMN_DAMAGE)
    def test_damaged_column_file_scores_as_without_it(self, trained_world, damage):
        path = self.inferred(trained_world, damage)
        intact = self.scored(trained_world, path, "intact")
        damage_column_file(columns_path(path), damage)
        assert self.scored(trained_world, path, "damaged") == intact
        assert intact[0] == 0


class TestLoaderErrors:
    """Broken inputs end in a one-line error naming the path, not a traceback."""

    def infer(self):
        return run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
                   "--out-file", "d.jsonl")

    def run_task_2(self, command):
        """`command` at task 2; infer writes `again.jsonl`, eval scores `d.jsonl`."""
        extra = {"train": [], "infer": ["--out-file", "again.jsonl"],
                 "eval": ["--detections", "d.jsonl"]}[command]
        return run(command, "--config", "tiny.ini", "--out", "out", "--task", "2", *extra)

    def test_train_before_gen(self, workdir, capsys):
        assert run("train", "--config", "tiny.ini", "--out", "out", "--task", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "out/world/manifest.json" in err

    def test_world_without_embeddings(self, workdir, capsys):
        assert run("gen", "--config", "tiny.ini", "--out", "out") == 0
        (workdir / "out" / "world" / "embeddings.json").unlink()
        assert run("train", "--config", "tiny.ini", "--out", "out", "--task", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "out/world/embeddings.json" in err

    def test_world_without_a_class_embedding(self, workdir, capsys):
        assert run("gen", "--config", "tiny.ini", "--out", "out") == 0
        path = workdir / "out" / "world" / "embeddings.json"
        embeddings = json.loads(path.read_text())
        del embeddings["class_t1_0"]
        path.write_text(json.dumps(embeddings))
        assert run("train", "--config", "tiny.ini", "--out", "out", "--task", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "class_t1_0" in err and "out/world/embeddings.json" in err

    def test_checkpoint_without_theta(self, trained, capsys):
        theta = trained / "out" / "checkpoints" / "task_2" / "theta.json"
        theta.unlink()
        assert self.infer() == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "out/checkpoints/task_2/theta.json" in err

    def test_module_with_unknown_format(self, trained, capsys):
        path = trained / "out" / "checkpoints" / "task_2" / "modules" / "class_000.json"
        payload = json.loads(path.read_text())
        payload["format"] = 99
        path.write_text(json.dumps(payload))
        assert self.infer() == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "out/checkpoints/task_2/modules/class_000.json" in err

    def test_module_with_a_nan(self, trained, capsys):
        path = trained / "out" / "checkpoints" / "task_2" / "modules" / "class_000.json"
        module = module_from_payload(json.loads(path.read_text()))
        module.layers[0].w1[0, 0] = np.nan
        write_json(path, module_to_payload(module))
        assert self.infer() == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "out/checkpoints/task_2/modules/class_000.json" in err
        assert "layer 0 field w1 holds a non-finite value" in err

    def test_module_with_a_zero_anchor_on_an_empty_split(self, trained, capsys):
        # refused as the checkpoint loads, before any scene could be scored
        from openworld_kit.owod_eval import write_gt_jsonl
        path = trained / "out" / "checkpoints" / "task_2" / "modules" / "class_000.json"
        module = module_from_payload(json.loads(path.read_text()))
        for layer in module.layers:
            layer.anchor[:] = 0.0
        write_json(path, module_to_payload(module))
        (trained / "out" / "world" / "scenes" / "empty").mkdir()
        write_gt_jsonl(trained / "out/world/scenes/empty/gt.jsonl", [])
        assert run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
                   "--split", "empty", "--out-file", "d.jsonl") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "out/checkpoints/task_2/modules/class_000.json" in err
        assert "anchor of layer 0 has zero norm" in err
        assert not (trained / "d.jsonl").exists()

    def test_module_file_missing(self, trained, capsys):
        (trained / "out" / "checkpoints" / "task_2" / "modules" / "class_001.json").unlink()
        assert self.infer() == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "out/checkpoints/task_2/modules/class_001.json" in err

    def test_module_file_of_another_class(self, trained, capsys):
        modules = trained / "out" / "checkpoints" / "task_2" / "modules"
        (modules / "class_001.json").write_bytes((modules / "class_000.json").read_bytes())
        assert self.infer() == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "out/checkpoints/task_2/modules/class_001.json" in err
        assert "holds class 0, not 1" in err

    @pytest.mark.parametrize("name", ["registry.json", "theta.json",
                                      "modules/class_000.json"])
    def test_truncated_checkpoint_file(self, trained, capsys, name):
        path = trained / "out" / "checkpoints" / "task_2" / name
        data = path.read_bytes()
        path.write_bytes(data[:min(200, len(data) // 2)])
        assert self.infer() == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"out/checkpoints/task_2/{name}" in err


    @pytest.mark.parametrize("name, edit", [
        ("registry.json", lambda p: {k: v for k, v in p.items() if k != "entries"}),
        ("registry.json", lambda p: p | {"entries": [
            {k: v for k, v in e.items() if k != "task_id"} for e in p["entries"]]}),
        ("theta.json", lambda p: {}),
        ("theta.json", lambda p: {"theta": 10 ** 400}),
        ("modules/class_000.json", lambda p: {k: v for k, v in p.items() if k != "layers"}),
        ("modules/class_000.json", lambda p: []),
    ], ids=["no-entries", "entry-without-task-id", "no-theta", "theta-overflows", "module-without-layers", "module-not-an-object"])
    def test_checkpoint_file_missing_field(self, trained, capsys, name, edit):
        path = trained / "out" / "checkpoints" / "task_2" / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert self.infer() == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"out/checkpoints/task_2/{name}" in err

    @staticmethod
    def registry_of_format_1(payload):
        """The registry file format 1 wrote: alpha, the generic-object vector
        and a frozen flag per entry beside what format 2 holds."""
        return payload | {"format": 1, "alpha": 0.4, "generic_object": [0.5] * 8,
                          "entries": [e | {"frozen": True} for e in payload["entries"]]}

    @pytest.mark.parametrize("name, edit, message", [
        ("registry.json", registry_of_format_1, "unsupported registry format 1"),
        ("registry.json", lambda p: p | {"entries": []}, "registry holds no class"),
        ("modules/class_000.json", lambda p: p | {"format": 4, "frozen": True},
         "unsupported module checkpoint format 4"),
    ], ids=["registry-format-1", "registry-without-entries", "module-format-4"])
    def test_old_format_or_empty_registry_is_refused(self, trained, capsys, name, edit,
                                                     message):
        path = trained / "out" / "checkpoints" / "task_2" / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert self.infer() == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and f"out/checkpoints/task_2/{name}" in err
        assert not (trained / "d.jsonl").exists()

    @pytest.mark.parametrize("command, blob", [
        ("train", "train/train-0002.pyr"),
        ("train", "cal/cal-0000.pyr"),
        ("infer", "test/test-0002.pyr"),
        ("eval", "test/test-0002.pyr"),
    ])
    def test_missing_scene_blob(self, trained, capsys, command, blob):
        # a split holds exactly the manifest's scenes: none is dropped silently
        assert self.infer() == 0
        (trained / "out/world/scenes" / blob).unlink()
        capsys.readouterr()
        assert self.run_task_2(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"no scene blob at out/world/scenes/{blob}" in err
        assert not (trained / "again.jsonl").exists()

    @pytest.mark.parametrize("command", ["train", "infer", "eval"])
    def test_scene_blob_of_no_scene(self, trained, capsys, command):
        split = "train" if command == "train" else "test"
        scenes = trained / "out/world/scenes" / split
        (scenes / f"{split}-0010.pyr").write_bytes((scenes / f"{split}-0000.pyr").read_bytes())
        (trained / "d.jsonl").write_text("")
        assert self.run_task_2(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"scene blob of no scene of split {split!r}" in err
        assert f"[out/world/scenes/{split}/{split}-0010.pyr]" in err

    @pytest.mark.parametrize("command, blob", [
        ("train", "train/train-0001.pyr"),
        ("infer", "test/test-0003.pyr"),
    ])
    def test_scene_blob_of_other_grid_shapes(self, trained, capsys, command, blob):
        # a split's scenes stack into one array per layer: a blob of another
        # dim is one error line naming it, not a numpy traceback
        assert run("gen", "--config", "tiny.ini", "--seed", "0", "--out", "dim6",
                   "--set", "world.dim=6") == 0
        (trained / "out/world/scenes" / blob).write_bytes(
            (trained / "dim6/world/scenes" / blob).read_bytes())
        capsys.readouterr()
        assert self.run_task_2(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scene blob of grid shapes [(8, 8, 6), (4, 4, 6)], "
                              "but the world's pyramid has [(8, 8, 8), (4, 4, 8)]")
        assert err.count("\n") == 1 and f"[out/world/scenes/{blob}]" in err

    @pytest.mark.parametrize("command", ["train", "infer", "eval"])
    def test_ground_truth_of_a_scene_without_blob(self, trained, capsys, command):
        split = "cal" if command == "train" else "test"
        gt = trained / "out/world/scenes" / split / "gt.jsonl"
        lines = gt.read_text().splitlines(keepends=True)
        lines.append(lines[0].replace(f"{split}-0000", f"{split}-0099"))
        gt.write_text("".join(lines))
        (trained / "d.jsonl").write_text("")
        assert self.run_task_2(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"ground truth of scene '{split}-0099', which has no blob" in err
        assert f"[out/world/scenes/{split}/gt.jsonl:{len(lines)}]" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_task_missing_from_split(self, trained, capsys, command):
        # the world has tasks 1 and 2, and task 2's checkpoint is there
        (trained / "d.jsonl").write_text("")
        extra = ["--detections", "d.jsonl"] if command == "eval" else []
        assert run(command, "--config", "tiny.ini", "--out", "out", "--task", "3",
                   *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "no task 3" in err and "tasks 1, 2" in err

    @pytest.mark.parametrize("argv, path", [
        (["eval", "--out", "out", "--task", "1", "--detections", "nope.jsonl"],
         "nope.jsonl"),
        (["eval", "--out", "out", "--task", "1", "--detections", "d.jsonl"],
         "out/world/scenes/test/gt.jsonl"),
        (["report", "nope.json"], "nope.json"),
    ], ids=["detections", "ground-truth", "report"])
    def test_missing_eval_input(self, workdir, capsys, argv, path):
        (workdir / "d.jsonl").write_text("")
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err

    @pytest.mark.parametrize("argv", [
        ("eval", "--task", "2", "--detections", "adir"),
        ("eval", "--task", "2", "--detections", "d.jsonl", "--report", "adir"),
        ("infer", "--task", "2", "--out-file", "adir"),
    ], ids=["eval-detections", "eval-report", "infer-out-file"])
    def test_directory_path_is_one_error_line(self, trained, capsys, argv):
        common = ("--config", "tiny.ini", "--out", "out")
        assert run("infer", *common, "--task", "2", "--out-file", "d.jsonl") == 0
        (trained / "adir").mkdir()
        capsys.readouterr()
        assert run(*argv, *common) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "adir" in err, err
        assert list(trained.rglob("*.tmp")) == []
        assert list((trained / "adir").iterdir()) == []

    @pytest.mark.parametrize("argv, path, what", [
        (("train", "--task", "1"), "out/world/scenes/train/train-0003.pyr", "pyramid blob"),
        (("infer", "--task", "2", "--out-file", "again.jsonl"),
         "out/world/scenes/test/test-0001.pyr", "pyramid blob"),
        (("train", "--task", "2"), "out/checkpoints/task_1/theta.json", "checkpoint file"),
        (("eval", "--task", "2", "--detections", "d.jsonl"), "out/world/manifest.json",
         "world manifest"),
    ], ids=["train-blob", "infer-blob", "train-checkpoint", "eval-manifest"])
    def test_directory_input_is_one_error_line(self, trained, capsys, argv, path, what):
        assert self.infer() == 0
        (trained / path).unlink()
        (trained / path).mkdir()
        capsys.readouterr()
        assert run(*argv, "--config", "tiny.ini", "--out", "out") == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read {what}: Is a directory [{path}]\n"
        assert not (trained / "again.jsonl").exists()


class TestOutOfRangeValues:
    """A value that parses but no run can use ends in a one-line error."""

    @pytest.mark.parametrize("override", ["train.alpha=5", "train.quantile=1.5"])
    def test_train(self, workdir, capsys, override):
        assert run("gen", "--config", "tiny.ini", "--out", "out") == 0
        assert run("train", "--config", "tiny.ini", "--out", "out", "--task", "1",
                   "--set", override) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and override.split("=")[0][len("train."):] in err

    def test_infer_alpha(self, trained, capsys):
        assert run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
                   "--out-file", "d.jsonl", "--set", "train.alpha=5") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "alpha" in err
        assert not (trained / "d.jsonl").exists()

    @pytest.mark.parametrize("override", [
        "world.box_size_ranges=20-56,300-400", "world.pyramid_layers=0x8x16,4x4x32",
    ], ids=["box-larger-than-image", "empty-layer"])
    def test_gen(self, workdir, capsys, override):
        assert run("gen", "--out", "out", "--set", override) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[world]" in err
        assert not (workdir / "out").exists()


    @pytest.mark.parametrize("value", ["-0.5", "1.5"])
    @pytest.mark.parametrize("command, key", [
        (("infer", "--task", "1"), "detect.conf_threshold"),
        (("infer", "--task", "1"), "detect.nms_iou"),
        (("eval", "--task", "1", "--detections", "d.jsonl"), "eval.iou_threshold"),
        (("eval", "--task", "1", "--detections", "d.jsonl"), "eval.recall_level"),
    ])
    def test_threshold_outside_unit_interval(self, workdir, capsys, command, key, value):
        assert run(*command, "--config", "tiny.ini", "--out", "out",
                   "--set", f"{key}={value}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err and "not in [0, 1]" in err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("override", [
        "train.learning_rate=nan", "train.weight_decay=inf", "train.weight_decay=1e999",
    ])
    def test_non_finite_train_value(self, workdir, capsys, override):
        assert run("gen", "--config", "tiny.ini", "--out", "out") == 0
        assert run("train", "--config", "tiny.ini", "--out", "out", "--task", "1",
                   "--set", override) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert override.split("=")[0] in err and "not a finite number" in err
        assert not (workdir / "out/checkpoints").exists()

    @pytest.mark.parametrize("value", ["2", "-1", "5", "1.0000001"])
    def test_bn_momentum_outside_unit_interval(self, workdir, capsys, value):
        # a running variance moves by (1 - m) * old + m * batch, which a
        # momentum outside [0, 1] can take below zero
        assert run("gen", "--config", "tiny.ini", "--out", "out") == 0
        assert run("train", "--config", "tiny.ini", "--out", "out", "--task", "1",
                   "--set", f"train.bn_momentum={value}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bn_momentum must lie in [0, 1]" in err
        assert not (workdir / "out/checkpoints").exists()

    def test_non_finite_world_value(self, workdir, capsys):
        assert run("gen", "--config", "tiny.ini", "--out", "out",
                   "--set", "world.noise_sigma=nan") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "world.noise_sigma" in err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("jitter, message", [
        ("2", "box_jitter=2.0 turns a"), ("-0.1", "box_jitter must be nonnegative")])
    def test_box_jitter(self, workdir, capsys, jitter, message):
        assert run("gen", "--config", "tiny.ini", "--out", "out",
                   "--set", f"world.box_jitter={jitter}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("cos, message", [
        ("-1", "background_max_cos must exceed -1"),
        ("-0.9", "background_max_cos=-0.9 let 0 of 20000 background draws of scene train-0000")])
    def test_background_no_vector_can_pass(self, workdir, capsys, cos, message):
        # a bound of -1 is refused up front; a bound no draw passes runs the
        # scene's draw budget out
        assert run("gen", "--config", "tiny.ini", "--out", "out", "--set", "world.max_draws=20000",
                   "--set", f"world.background_max_cos={cos}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not (workdir / "out" / "world").exists()

    def test_failed_gen_leaves_no_partial_world(self, workdir, capsys):
        # the default world fails in scene generation, after its manifest,
        # embeddings and task split are made
        assert run("gen", "--out", "out", "--set", "world.box_jitter=2") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list((workdir / "out").iterdir()) == []

    def test_failed_gen_keeps_the_old_world(self, workdir, capsys):
        assert run("gen", "--config", "tiny.ini", "--out", "out") == 0
        world = workdir / "out" / "world"
        old = {p: p.read_bytes() for p in world.rglob("*") if p.is_file()}
        assert run("gen", "--config", "tiny.ini", "--out", "out", "--seed", "1",
                   "--set", "world.box_jitter=2") == 1
        assert {p: p.read_bytes() for p in world.rglob("*") if p.is_file()} == old
        assert [p.name for p in (workdir / "out").iterdir()] == ["world"]

    def test_regenerated_world_keeps_no_old_scene(self, workdir):
        args = ("--config", "tiny.ini", "--out", "out")
        assert run("gen", *args) == 0
        assert run("gen", *args, "--set", "world.scenes_per_split=train:6,cal:3,test:2") == 0
        assert sorted(p.name for p in (workdir / "out/world/scenes/test").iterdir()) == [
            "gt.jsonl", "test-0000.pyr", "test-0001.pyr"]

    def test_cal_split_without_known_location(self, workdir, capsys):
        # no cal box of seed 3 belongs to a task-1 class: there is no score
        # to calibrate theta on, and no checkpoint is written
        args = ("--config", "tiny.ini", "--seed", "3", "--out", "out",
                "--set", "world.boxes_per_scene=1,2", "--set", "world.unknown_box_ratio=0.5")
        assert run("gen", *args) == 0
        capsys.readouterr()
        assert run("train", *args, "--task", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "task 1: no location of the cal split is owned by a known class" in err
        assert not (workdir / "out" / "checkpoints").exists()

    def test_training_steps_without_train_scenes(self, workdir, capsys):
        args = ("--config", "tiny.ini", "--out", "out",
                "--set", "world.scenes_per_split=train:0,cal:3,test:4")
        assert run("gen", *args) == 0
        assert run("train", *args, "--task", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "3 training steps need a train scene" in err
        assert run("train", *args, "--task", "1", "--set", "train.steps_per_task=0") == 0


class TestCheckpointDim:
    """A checkpoint runs only on a world of its embedding dim."""

    ARGS = ("--config", "tiny.ini", "--out", "out")

    @pytest.fixture()
    def regenerated(self, workdir):
        assert run("gen", *self.ARGS) == 0
        assert run("train", *self.ARGS, "--task", "1") == 0
        assert run("gen", *self.ARGS, "--set", "world.dim=12") == 0
        return workdir

    @pytest.mark.parametrize("argv", [
        ("train", "--task", "2"),
        ("infer", "--task", "1"),
        ("infer", "--task", "1", "--prompt-key", "object"),
    ], ids=["train", "infer", "infer-prompt-key"])
    def test_dim_mismatch_is_a_config_error(self, regenerated, capsys, argv):
        assert run(*argv[:1], *self.ARGS, *argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "dim-8" in err and "world.dim=12" in err
        assert "out/checkpoints/task_1" in err


class TestCheckpointGeometry:
    """A checkpoint runs only on a world whose pyramid has its modules'
    layer count and dim; `train` and `infer` check that when they load it."""

    ARGS = ("--config", "tiny.ini", "--out", "out")

    @pytest.fixture()
    def task1(self, workdir):
        assert run("gen", *self.ARGS) == 0
        assert run("train", *self.ARGS, "--task", "1") == 0
        return workdir

    @staticmethod
    def drop_last_layer(path):
        payload = json.loads(path.read_text())
        del payload["layers"][-1]
        return payload

    @staticmethod
    def module_of_dim_6(path):
        payload = json.loads(path.read_text())
        module = init_module(payload["class_id"], payload["task_id"], dim=6, num_layers=2,
                             rng=np.random.default_rng(0))
        return module_to_payload(module)

    @pytest.mark.parametrize("argv", [("train", "--task", "2"), ("infer", "--task", "1")],
                             ids=["train", "infer"])
    @pytest.mark.parametrize("edit, geometry", [
        (drop_last_layer, "1 layers of dim 8"),
        (module_of_dim_6, "2 layers of dim 6"),
    ], ids=["layers", "dim"])
    def test_mismatch_is_a_config_error(self, task1, capsys, argv, edit, geometry):
        path = task1 / "out/checkpoints/task_1/modules/class_001.json"
        write_json(path, edit(path))
        assert run(*argv[:1], *self.ARGS, *argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "out/checkpoints/task_1" in err and "class 1" in err
        assert geometry in err and "2 layers of dim 8" in err
        assert not (task1 / "out/checkpoints/task_2").exists()


class TestCheckpointWorld:
    """A checkpoint runs only on the world it was trained on: `train` records
    the SHA-256 of the world's manifest, and `train` and `infer` refuse a
    checkpoint of another digest."""

    ARGS = ("--seed", "0", "--out", "out", "--set", "train.steps_per_task=2",
            "--set", "world.scenes_per_split=train:8,cal:4,test:4")

    @pytest.fixture(scope="class")
    def seed0_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("seed0")
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(root)
            assert run("gen", *self.ARGS) == 0
            for task in ("1", "2", "3"):
                assert run("train", *self.ARGS, "--task", task) == 0
        return root

    @pytest.mark.parametrize("argv", [("infer", "--task", "3"), ("train", "--task", "3")],
                             ids=["infer", "train"])
    @pytest.mark.parametrize("world", [("--seed", "5"),
                                       ("--set", "world.known_per_task=4,4,4")],
                             ids=["seed-5", "known-4-4-4"])
    def test_world_of_another_digest_is_a_config_error(self, seed0_run, tmp_path,
                                                       monkeypatch, capsys, argv, world):
        shutil.copytree(seed0_run / "out", tmp_path / "out")
        monkeypatch.chdir(tmp_path)
        ckpt = tmp_path / "out/checkpoints/task_3" if argv[0] == "infer" else \
            tmp_path / "out/checkpoints/task_2"
        before = {p: p.read_bytes() for p in ckpt.parent.rglob("*") if p.is_file()}
        trained_on = json.loads((ckpt / "config.json").read_text())["world_sha256"]
        assert run("gen", *self.ARGS, *world) == 0
        now = hashlib.sha256((tmp_path / "out/world/manifest.json").read_bytes()).hexdigest()
        assert now != trained_on
        capsys.readouterr()
        assert run(*argv[:1], *self.ARGS, *argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert trained_on in err and now in err and str(ckpt.relative_to(tmp_path)) in err
        assert {p: p.read_bytes() for p in ckpt.parent.rglob("*") if p.is_file()} == before
        assert not (tmp_path / "out/detections").exists()

    def test_digest_is_the_manifest_sha256(self, seed0_run):
        digest = hashlib.sha256((seed0_run / "out/world/manifest.json").read_bytes()).hexdigest()
        for task in (1, 2, 3):
            config = seed0_run / "out/checkpoints" / f"task_{task}" / "config.json"
            assert json.loads(config.read_text())["world_sha256"] == digest


class TestTaskConfigReadBack:
    """A later task trains only with the `tau` of the checkpoint it extends;
    other keys may change."""

    ARGS = ("--config", "tiny.ini", "--out", "out")

    @pytest.fixture()
    def task1(self, workdir):
        assert run("gen", *self.ARGS) == 0
        assert run("train", *self.ARGS, "--task", "1") == 0
        return workdir

    @pytest.mark.parametrize("key, value, before, after", [
        ("tau", "0.5", "0.1", "0.5"),
    ])
    def test_mismatch_is_a_config_error(self, task1, capsys, key, value, before, after):
        assert run("train", *self.ARGS, "--task", "2", "--set", f"train.{key}={value}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"train.{key}={after}" in err and f"train.{key}={before}" in err
        assert not (task1 / "out/checkpoints/task_2").exists()

    def test_other_keys_may_change(self, task1):
        assert run("train", *self.ARGS, "--task", "2", "--set", "train.learning_rate=0.001",
                   "--set", "train.alpha=0.2") == 0

    def test_missing_config_file(self, task1, capsys):
        (task1 / "out/checkpoints/task_1/config.json").unlink()
        assert run("train", *self.ARGS, "--task", "2") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "out/checkpoints/task_1/config.json" in err


class TestThresholdGate:
    def test_unmet_threshold_fails(self, trained):
        run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--out-file", "d.jsonl")
        code = run("eval", "--config", "tiny.ini", "--out", "out", "--task", "2",
                   "--detections", "d.jsonl", "--split", "test",
                   "--set", "thresholds.min_map_both=1.01")
        assert code == 1

    def test_met_threshold_passes(self, trained):
        run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--out-file", "d.jsonl")
        code = run("eval", "--config", "tiny.ini", "--out", "out", "--task", "2",
                   "--detections", "d.jsonl", "--split", "test",
                   "--set", "thresholds.min_map_both=0.0")
        assert code == 0

    def test_undefined_metric_never_fails_threshold(self, trained):
        # an empty detections file leaves WI undefined; its threshold is skipped
        (trained / "none.jsonl").write_text("")
        code = run("eval", "--config", "tiny.ini", "--out", "out", "--task", "2",
                   "--detections", "none.jsonl", "--split", "test",
                   "--set", "thresholds.max_wi=0.0")
        assert code == 0


class TestAblate:
    def test_alpha_sweep_produces_rows(self, trained):
        code = run("ablate", "--config", "tiny.ini", "--out", "out", "--task", "2",
                   "--parameter", "alpha", "--values", "0.2,0.4,0.8")
        assert code == 0
        sweep = (trained / "out/reports/ablate_alpha/sweep.csv").read_text().splitlines()
        assert sweep[0] == "value,map_both,u_recall,wi,a_ose"
        assert len(sweep) == 4
        for value in ("0.2", "0.4", "0.8"):
            report = json.loads(
                (trained / f"out/reports/ablate_alpha/{value}_report.json").read_text())
            for key in ("map_both", "u_recall", "wi", "a_ose"):
                if report[key] is not None:
                    assert np.isfinite(report[key])

    @pytest.mark.parametrize("previous", [True, False], ids=["over-old", "fresh"])
    def test_torn_sweep_write_leaves_the_old_file_or_none(self, trained, tear_writes,
                                                            capsys, previous):
        sweep = trained / "out/reports/ablate_alpha/sweep.csv"
        args = ("ablate", "--config", "tiny.ini", "--out", "out", "--task", "2",
                "--parameter", "alpha", "--values", "0.2,0.4")
        if previous:
            assert run(*args) == 0
            old = sweep.read_bytes()
        tear_writes("sweep.csv")
        capsys.readouterr()
        assert run(*args) == 1
        assert capsys.readouterr().err == \
            "error: cannot write out/reports/ablate_alpha/sweep.csv: no space left on device\n"
        if previous:
            assert sweep.read_bytes() == old
        else:
            assert not sweep.exists()
        assert list(trained.rglob("*.tmp")) == []

    def test_alpha_zero_equals_raw_generic_prompt_arm(self, trained):
        run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--set", "train.alpha=0", "--out-file", "alpha0.jsonl")
        run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--no-owel", "--out-file", "noowel.jsonl")
        assert (trained / "alpha0.jsonl").read_bytes() == \
            (trained / "noowel.jsonl").read_bytes()

    def test_prompt_sweep_over_embedding_keys(self, trained):
        manifest = json.loads((trained / "out/world/embeddings.json").read_text())
        keys = sorted(manifest)[:3]
        code = run("ablate", "--config", "tiny.ini", "--out", "out", "--task", "2",
                   "--parameter", "prompt", "--values", ",".join(keys))
        assert code == 0
        sweep = (trained / "out/reports/ablate_prompt/sweep.csv").read_text().splitlines()
        assert len(sweep) == 1 + len(keys)

    def test_tau_requires_retrain_flag(self, trained, capsys):
        code = run("ablate", "--config", "tiny.ini", "--out", "out", "--task", "1",
                   "--parameter", "tau", "--values", "0.2")
        assert code == 1
        assert "retrain" in capsys.readouterr().err

    def test_tau_with_retrain(self, trained):
        code = run("ablate", "--config", "tiny.ini", "--out", "out", "--task", "1",
                   "--parameter", "tau", "--values", "0.2", "--retrain")
        assert code == 0
        assert (trained / "out/reports/ablate_tau/0.2_report.json").exists()


class TestReportIsWholePair:
    """`eval` writes the report JSON and its CSV both or neither: a failed
    write of a task-2 report over a task-3 one leaves the task-3 pair."""

    ARGS = ("--config", "tiny.ini", "--seed", "0", "--out", "out",
            "--set", "world.known_per_task=2,2,2")

    @pytest.fixture()
    def task3_report(self, workdir):
        assert run("gen", *self.ARGS) == 0
        for task in ("1", "2"):
            assert run("train", *self.ARGS, "--task", task) == 0
        assert run("infer", *self.ARGS, "--task", "2", "--out-file", "d.jsonl") == 0
        assert self.eval(3) == 0
        files = [workdir / "r.json", workdir / "r.csv"]
        assert json.loads(files[0].read_text())["task_id"] == 3
        return files, [path.read_bytes() for path in files]

    def eval(self, task):
        return run("eval", *self.ARGS, "--task", str(task), "--detections", "d.jsonl",
                   "--split", "test", "--report", "r.json")

    def assert_old_pair(self, workdir, files, old):
        assert [path.read_bytes() for path in files] == old
        assert list(workdir.rglob("*.tmp")) == []

    def test_failing_csv_row_leaves_the_old_pair(self, workdir, task3_report, monkeypatch):
        def fail(report):
            raise RuntimeError("csv row")
        monkeypatch.setattr(cli.ev, "report_csv_row", fail)
        with pytest.raises(RuntimeError, match="csv row"):
            self.eval(2)
        self.assert_old_pair(workdir, *task3_report)

    def test_torn_csv_write_leaves_the_old_pair(self, workdir, task3_report, tear_writes,
                                                capsys):
        tear_writes("r.csv")
        capsys.readouterr()
        assert self.eval(2) == 1
        assert capsys.readouterr().err == \
            "error: cannot write r.json and r.csv: no space left on device\n"
        self.assert_old_pair(workdir, *task3_report)

    def test_directory_csv_target_leaves_the_old_json(self, workdir, task3_report, capsys):
        (json_path, csv_path), (old_json, _) = task3_report
        csv_path.unlink()
        csv_path.mkdir()
        capsys.readouterr()
        assert self.eval(2) == 1
        assert capsys.readouterr().err == "error: cannot write r.csv: Is a directory\n"
        assert json_path.read_bytes() == old_json
        assert list(csv_path.iterdir()) == []
        assert list(workdir.rglob("*.tmp")) == []


class TestReportProtocol:
    """The report's protocol pins are the IoU threshold and the WI recall
    level that the eval used, as its config echo says."""

    @pytest.mark.parametrize("overrides, iou, level", [
        ((), 0.5, 0.8),
        (("eval.iou_threshold=0.3",), 0.3, 0.8),
        (("eval.iou_threshold=0.3", "eval.recall_level=0.6"), 0.3, 0.6),
    ], ids=["default", "iou", "iou-and-level"])
    def test_pins_echo_the_arguments(self, trained, overrides, iou, level):
        run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--out-file", "d.jsonl")
        sets = [arg for item in overrides for arg in ("--set", item)]
        run("eval", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--detections", "d.jsonl", "--report", "r.json", *sets)
        report = json.loads((trained / "r.json").read_text())
        assert report["config"]["eval"] == {"iou_threshold": iou, "recall_level": level}
        assert report["protocol"] == cli.ev.PROTOCOL | {"iou_threshold": iou,
                                                    "wi_recall_level": level}


class TestReportCommand:
    def test_renders_report(self, trained, capsys):
        run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--out-file", "d.jsonl")
        run("eval", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--detections", "d.jsonl", "--split", "test", "--report", "r.json")
        capsys.readouterr()
        assert run("report", "r.json") == 0
        out = capsys.readouterr().out
        assert "task 2" in out and "U-Recall" in out

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(colour="red"),
        lambda doc: doc.pop("wi"),
        lambda doc: doc.pop("per_class_ap"),
    ], ids=["unexpected-key", "missing-metric", "missing-per-class-ap"])
    def test_report_with_other_keys_is_an_error(self, trained, capsys, edit):
        """A document is a report only with exactly the keys `eval` writes
        (`config` and `protocol` may be absent)."""
        run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--out-file", "d.jsonl")
        run("eval", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--detections", "d.jsonl", "--split", "test", "--report", "r.json")
        document = json.loads((trained / "r.json").read_text())
        edit(document)
        (trained / "r.json").write_text(json.dumps(document))
        capsys.readouterr()
        assert run("report", "r.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad report") and err.count("\n") == 1
        assert "r.json" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("map_both", []), ("u_recall", "0.5"), ("wi", True), ("a_ose", "many"),
        ("a_ose", 2.0), ("task_id", False), ("task_id", "2"), ("per_class_ap", []),
        ("per_class_ap", {"car": "0.5"}), ("per_class_ap", {"car": True}),
        ("config", 3), ("protocol", None),
    ], ids=["map-list", "metric-string", "metric-bool", "a_ose-string", "a_ose-float",
            "task-bool", "task-string", "per-class-list", "per-class-string",
            "per-class-bool", "config-number", "protocol-null"])
    def test_report_with_a_field_of_another_type_is_an_error(self, trained, capsys, key,
                                                             value):
        """Every metric of a report is a number or null, `task_id` and
        `a_ose` are integers: `report` renders nothing else."""
        run("infer", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--out-file", "d.jsonl")
        run("eval", "--config", "tiny.ini", "--out", "out", "--task", "2",
            "--detections", "d.jsonl", "--split", "test", "--report", "r.json")
        document = json.loads((trained / "r.json").read_text())
        document[key] = value
        (trained / "r.json").write_text(json.dumps(document))
        capsys.readouterr()
        assert run("report", "r.json") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: bad report: {key} ")
        assert captured.err.count("\n") == 1
        assert "r.json" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("text", ['{"task_id": 2, "map_prev"', '{}', '[1]', '"r"',
                                      '\udcff', '[' * 100_000],
                             ids=["truncated", "no-fields", "list", "string", "not-utf8",
                                  "deep-nesting"])
    def test_malformed_report_is_an_error(self, workdir, capsys, text):
        (workdir / "r.json").write_text(text, errors="surrogateescape")
        assert run("report", "r.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "r.json" in err


class TestWholeDirectoryWrites:
    """`gen` and `train` replace their directory whole: whatever a failed run
    left at `<dir>.tmp` or `<dir>.old.tmp` is cleared, symlinks unfollowed,
    and a failed rename keeps the old directory and ends in one error line."""

    ARGS = ("--config", "tiny.ini", "--seed", "0", "--out", "out")
    COMMANDS = {"gen": (("gen",), "out/world"),
                "train": (("train", "--task", "2"), "out/checkpoints/task_2")}

    def first_run(self, workdir, command):
        """Run `command` once after what it needs; its directory."""
        assert run("gen", *self.ARGS) == 0
        if command == "train":
            assert run("train", *self.ARGS, "--task", "1") == 0
        argv, target = self.COMMANDS[command]
        assert run(*argv, *self.ARGS) == 0
        return argv, workdir / target

    @pytest.mark.parametrize("suffix", [".tmp", ".old.tmp"])
    @pytest.mark.parametrize("stale", ["file", "symlink", "directory"])
    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_stale_temporary_path_is_cleared(self, workdir, command, stale, suffix):
        argv, target = self.first_run(workdir, command)
        clean = tree_bytes(target)
        elsewhere = workdir / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "keep").write_text("keep")
        leftover = target.with_name(target.name + suffix)
        if stale == "file":
            leftover.write_text("stale")
        elif stale == "symlink":
            leftover.symlink_to(elsewhere, target_is_directory=True)
        else:
            shutil.copytree(elsewhere, leftover)
        assert run(*argv, *self.ARGS) == 0
        assert tree_bytes(target) == clean
        assert not os.path.lexists(leftover)
        assert tree_bytes(elsewhere) == {Path("keep"): b"keep"}

    @pytest.mark.parametrize("fail_at", [1, 2], ids=["moving-old-aside", "renaming-new"])
    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_failed_rename_keeps_the_old_directory(self, workdir, monkeypatch, capsys,
                                                   command, fail_at):
        argv, target = self.first_run(workdir, command)
        (target / "marker").write_text("old")
        old = tree_bytes(target)
        renames = []
        replace = os.replace

        def failing(src, dst):
            # only the renames of the directory itself count
            if str(target) in (os.path.abspath(src), os.path.abspath(dst)):
                renames.append((src, dst))
                if len(renames) == fail_at:
                    raise OSError(errno.EACCES, os.strerror(errno.EACCES))
            return replace(src, dst)
        monkeypatch.setattr(os, "replace", failing)
        capsys.readouterr()
        assert run(*argv, *self.ARGS) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target.relative_to(workdir)}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert tree_bytes(target) == old
        assert list(workdir.rglob("*.tmp")) == []
        monkeypatch.setattr(os, "replace", replace)
        assert run(*argv, *self.ARGS) == 0
        assert "marker" not in {p.name for p in target.iterdir()}
