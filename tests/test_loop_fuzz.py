"""The whole loop over the config space: gen -> train -> infer (gated and
base arms) -> eval through `cli.main` on tiny worlds drawn from INI values,
edge values of every kind included. Each call returns 0, or prints one
`error: ...` line and returns nonzero; no traceback escapes. A gen or train
that returns 0 writes the same world or checkpoint bytes again on a rerun
into another `--out`. An infer that returns 0 writes the same bytes again on
a rerun, and its file reads back one record a line; its column file, when
there is one, holds the table that the parse reads. Every metric of a
report that eval writes lies in its range, and an eval rerun into another
report, with the column file removed, writes the same JSON and CSV bytes.
The run's task-1 checkpoint, copied under a world of the next seed, is
refused by infer and by train, naming the digest of each world's manifest.

Budget: about 10 s of tier-1 time (150 examples of a few tiny-world calls
each), set by `max_examples`; there is no per-example deadline.
"""

import hashlib
import json
import shutil
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from openworld_kit import cli
from openworld_kit.detection import columns_path, read_detections_jsonl

from oracles import assert_same_table, parsed_table, stored_table

# (key, values): each draw sets every key to one of its values; the first
# value of a key is a plain one, the others are edges
VALUES = {
    "world.dim": ("4", "5", "8"),
    "world.known_per_task": ("1", "1,1", "2,1", "0,1"),
    "world.n_nood": ("0", "1", "2"),
    "world.n_food": ("0", "1", "2"),
    "world.boxes_per_scene": ("1,3", "0,0", "0,2", "4,4"),
    "world.scenes_per_split": ("train:2,cal:2,test:2", "train:0,cal:2,test:2",
                               "train:3,cal:0,test:4", "train:2,cal:2,test:0"),
    "world.unknown_box_ratio": ("0.3", "0", "1"),
    "world.box_jitter": ("0", "0.2", "0.6", "2"),
    "world.noise_sigma": ("0.1", "0", "3"),
    "world.background_max_cos": ("0.3", "0.05", "0.9"),
    "world.known_angle_range": ("0.7,1.1", "1.0,1.0"),
    "train.steps_per_task": ("1", "0", "2"),
    "train.batch_size": ("2", "1", "3"),
    "train.alpha": ("0.4", "0", "2"),
    "train.tau": ("0.1", "1e-6", "100"),
    "train.neg_cap": ("10", "0", "1"),
    "train.quantile": ("0.95", "1e-9", "0.999999"),
    "train.learning_rate": ("1e-4", "10"),
    "train.weight_decay": ("0.0125", "0", "100"),
    "train.logit_scale": ("10", "1e-6", "1000"),
    "train.bn_momentum": ("0.1", "0", "1", "2"),
    "detect.conf_threshold": ("0.25", "0", "1"),
    "detect.nms_iou": ("0.7", "0", "1"),
    "detect.class_wise_nms": ("true", "false"),
    "eval.iou_threshold": ("0.5", "0", "1"),
    "eval.recall_level": ("0.8", "0", "1"),
}


# (pyramid_layers, level_thresholds, box_size_ranges) of 64-pixel images
GEOMETRIES = (("4x4x16", "0", "20-40"), ("4x4x16,2x2x32", "0,40", "20-40,40-60"),
              ("2x2x32,1x1x64", "0,48", "34-40,50-64"), ("8x8x8,4x4x16", "0,16", "9-16,16-64"))


@st.composite
def tiny_world_ini(draw):
    values = {dotted: draw(st.sampled_from(choices)) for dotted, choices in VALUES.items()}
    values |= zip(("world.pyramid_layers", "world.level_thresholds", "world.box_size_ranges"),
                  draw(st.sampled_from(GEOMETRIES)))
    lines = []
    for section in ("world", "train", "detect", "eval"):
        lines.append(f"[{section}]")
        lines += [f"{dotted.split('.', 1)[1]} = {value}" for dotted, value in values.items()
                  if dotted.startswith(section + ".")]
    return "\n".join(lines) + "\n"


def tree(path):
    """Every file under `path`, by relative name, with its bytes; `path`
    must hold one."""
    files = {p.relative_to(path): p.read_bytes() for p in path.rglob("*") if p.is_file()}
    assert files, path
    return files


def call(capsys, *argv):
    """`cli.main(argv)`'s code; a failure must be one `error:` line."""
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    if code != 0:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return code


@given(text=tiny_world_ini(), seed=st.integers(0, 3))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_loop_ends_in_zero_or_one_error_line(tmp_path_factory, capsys, text, seed):
    root = tmp_path_factory.mktemp("loop")
    (root / "run.ini").write_text(text)
    common = ["--config", str(root / "run.ini"), "--seed", str(seed), "--out", str(root)]
    # the same calls into another run directory write the same bytes
    again = common[:-1] + [str(root / "again")]
    if call(capsys, "gen", *common) != 0:
        return
    assert call(capsys, "gen", *again) == 0
    assert tree(root / "again" / "world") == tree(root / "world")
    tasks = len(cli.RunConfig.load(str(root / "run.ini")).world_spec().known_per_task)
    for task in range(1, tasks + 1):
        if call(capsys, "train", *common, "--task", str(task)) != 0:
            return
        assert call(capsys, "train", *again, "--task", str(task)) == 0
        checkpoint = Path("checkpoints") / f"task_{task}"
        assert tree(root / "again" / checkpoint) == tree(root / checkpoint)
        if task == 1:
            mix_worlds(capsys, text, seed, root, tasks)
    for arm in ([], ["--no-owel", "--no-mscal"]):
        dets = root / f"dets{len(arm)}.jsonl"
        report = root / f"report{len(arm)}.json"
        if call(capsys, "infer", *common, "--task", str(tasks),
                "--out-file", str(dets), *arm) != 0:
            continue
        # a rerun writes the same bytes, which read back one record a line
        again = root / f"again{len(arm)}.jsonl"
        assert call(capsys, "infer", *common, "--task", str(tasks),
                    "--out-file", str(again), *arm) == 0
        assert again.read_bytes() == dets.read_bytes()
        assert len(read_detections_jsonl(dets)) == dets.read_bytes().count(b"\n")
        if columns_path(dets).exists():
            assert_same_table(stored_table(dets), parsed_table(dets))
        if call(capsys, "eval", *common, "--task", str(tasks), "--detections", str(dets),
                "--report", str(report)) == 0:
            rerun = root / f"rerun{len(arm)}.json"
            columns_path(dets).unlink(missing_ok=True)
            assert call(capsys, "eval", *common, "--task", str(tasks),
                        "--detections", str(dets), "--report", str(rerun)) == 0
            for suffix in (".json", ".csv"):
                assert (report.with_suffix(suffix).read_bytes()
                        == rerun.with_suffix(suffix).read_bytes()), suffix
            metrics = json.loads(report.read_text())
            for key in ("map_prev", "map_curr", "map_both", "u_recall"):
                assert metrics[key] is None or 0.0 <= metrics[key] <= 1.0, (key, metrics)
            assert metrics["wi"] is None or metrics["wi"] >= 0.0  # unknown FPs over known hits
            assert metrics["a_ose"] >= 0


def mix_worlds(capsys, text, seed, root, tasks):
    """The run's task-1 checkpoint under a world of the next seed: infer of
    task 1, and train of task 2 when there is one, each end in one `error:`
    line naming the digest of both worlds' manifests."""
    other = root / "other"
    other.mkdir()
    (other / "run.ini").write_text(text)
    common = ["--config", str(other / "run.ini"), "--seed", str(seed + 1), "--out", str(other)]
    if call(capsys, "gen", *common) != 0:
        return
    shutil.copytree(root / "checkpoints", other / "checkpoints")
    digests = [hashlib.sha256((base / "world" / "manifest.json").read_bytes()).hexdigest()
               for base in (root, other)]
    for command in [("infer", "--task", "1"), ("train", "--task", "2")][:tasks]:
        assert cli.main([*command, *common]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
        assert all(digest in err for digest in digests), (command, err)
