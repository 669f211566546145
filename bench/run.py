"""Closed-loop benchmark of the openworld-kit pipeline.

One loop runs every public stage in order, in one process, through
`cli.main`: gen -> train tasks 1..3 -> infer on the full arm and on the base
arm (`--no-owel --no-mscal`) -> eval of both detection files. A stage that is
short repeats within the loop to give more timed samples. Loops repeat while
the next one still fits in `--seconds`, and at least twice, so every run also
checks that two loops of one seed leave byte-identical run directories.

    python3 bench/run.py --workload loop-default --seed 0 --seconds 55 --trace 0

`--seed` picks the world; a seed whose world cannot be built passes to the
next one up. With `--trace 0` the last stdout line reports the end-to-end
metrics, stage times scaled to a fixed reference speed (`stage_times`); with
`--trace 1` untraced and traced loops alternate and it reports the per-layer
metrics of `bench/tracer.py`. The line before it holds the environment, the
raw stage times and the output checks. Run directories live under
`.bench_work/` in the checkout and are removed at exit; span dumps go to
`.bench_out/`, outside every run directory. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, instrumented, layer_metrics  # noqa: E402

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
THREADS_ENV = "OPENWORLD_KIT_THREADS"
MIN_LOOPS = 2
# How many seeds upward from `--seed` the search for a buildable world tries.
SEED_TRIES = 50
MAX_LOOPS = 40
# An untraced loop repeats each stage until it has run this long, so short
# stages get as many timed samples as long ones.
STAGE_MIN_S = 1.0
STAGE_MAX_REPS = 12
# About what `reference_s` takes on the 2-vCPU host the benchmark was built
# on; stage times are reported at this reference speed.
REF_NOMINAL_S = 0.010


@dataclass(frozen=True)
class Workload:
    why: str
    settings: tuple[str, ...]


# Training steps are cut from the recipe's 500 per task so that a loop takes
# seconds; the world of each workload is what its reason names.
WORKLOADS = {
    "loop-default": Workload(
        "acceptance world (dim 16, 5/5/5 classes, 60/20/40 scenes): what users "
        "run; per-class cost stays modest, and the gated arm floods one unknown "
        "NMS group per scene",
        ("train.steps_per_task=12",),
    ),
    "train-wide": Workload(
        "dim 32, 10/10/10 classes: task 3 trains 10 modules beside 20 frozen "
        "ones, so the per-class mscal and training loops dominate",
        ("world.dim=32", "world.known_per_task=10,10,10", "world.n_food=12",
         "world.scenes_per_split=train:60,cal:20,test:20",
         "train.steps_per_task=8"),
    ),
}

END_TO_END = {
    "setup_s": "s", "train_s": "s", "infer_gated_scenes_per_s": "scenes/s",
    "infer_ungated_scenes_per_s": "scenes/s", "eval_s": "s", "loop_s": "s",
    "peak_rss_mb": "MB", "map_both": "ratio", "u_recall": "ratio",
}

GATED = "task3_test.jsonl"
UNGATED = "task3_test_noowel_nomscal.jsonl"
INFER_LINE = re.compile(r"^(\d+) detections over (\d+) scenes -> (.+)$", re.M)


# ---------------------------------------------------------------------------
# environment


def pin_threads() -> None:
    """Pin BLAS to one thread and leave the package's own pool at its default,
    identically on every commit; must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    os.environ.pop(THREADS_ENV, None)


def load_package():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from openworld_kit import cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import openworld_kit from {src}: {exc}")
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"bench: openworld_kit imported from {cli.__file__}, not {src}")
    return cli


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        THREADS_ENV: os.environ.get(THREADS_ENV),
        "machine": platform.machine(),
        "threads": threading.active_count(),
    }


def buildable(cli, settings, seed: int) -> bool:
    """Whether `make_world` can build the workload's world from `seed`."""
    from openworld_kit.errors import InfeasibleSpec
    from openworld_kit.synthetic_world import make_world

    try:
        make_world(cli.RunConfig.load(None, list(settings)).world_spec(), seed)
    except InfeasibleSpec:
        return False
    return True


def world_seed(cli, workload: Workload, seed: int) -> tuple[int, list[int]]:
    """The first seed from `seed` upward whose world builds, and the seeds
    passed over. A world that cannot be built has no loop to time, so every
    run measures a buildable one; `bench/seeds.py` lists the others."""
    skipped = []
    for candidate in range(seed, seed + SEED_TRIES):
        if buildable(cli, workload.settings, candidate):
            return candidate, skipped
        skipped.append(candidate)
    raise SystemExit(f"bench: no buildable world in seeds {seed}-{seed + SEED_TRIES - 1}")


# ---------------------------------------------------------------------------
# one loop


@dataclass
class Stage:
    name: str
    ok: bool
    seconds: float
    stdout: str
    ref_s: float


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = random.Random(0)
    boxes = []
    for _ in range(100):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        boxes.append((x, y, x + rng.uniform(5, 30), y + rng.uniform(5, 30)))
    gen = np.random.default_rng(0)
    return boxes, gen.standard_normal((2048, 32)), gen.standard_normal((32, 32))


def _overlap(a, b) -> float:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0.0 or h <= 0.0:
        return 0.0
    inter = w * h
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def reference_s() -> float:
    """Time of fixed work in the benchmark's own code: pure-Python box
    overlaps, like NMS, and small numpy products, like training. It reads how
    fast this vCPU runs now, independently of the package's code."""
    import numpy as np

    boxes, x, w = _reference_inputs()
    start = time.perf_counter()
    total = 0.0
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            total += _overlap(a, b)
    for _ in range(4):
        total += float(np.exp(-np.square(x @ w)).sum())
    return time.perf_counter() - start


@dataclass
class Loop:
    traced: bool
    stages: list[Stage] = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def complete(self) -> bool:
        return ({s.name for s in self.stages} == set(STAGES)
                and all(s.ok for s in self.stages))

    def stage(self, name: str) -> Stage:
        return next(s for s in self.stages if s.name == name)


def _stage_argv(name: str, run_dir: Path) -> list[str]:
    dets = run_dir / "detections"
    return {
        "gen": ["gen"],
        "train1": ["train", "--task", "1"],
        "train2": ["train", "--task", "2"],
        "train3": ["train", "--task", "3"],
        "infer_gated": ["infer", "--task", "3", "--split", "test"],
        "infer_ungated": ["infer", "--task", "3", "--split", "test",
                          "--no-owel", "--no-mscal"],
        "eval_gated": ["eval", "--task", "3", "--split", "test",
                       "--detections", str(dets / GATED)],
        "eval_ungated": ["eval", "--task", "3", "--split", "test",
                         "--detections", str(dets / UNGATED)],
    }[name]


STAGES = ("gen", "train1", "train2", "train3", "infer_gated", "infer_ungated",
          "eval_gated", "eval_ungated")


def run_stage(cli, name: str, argv: list[str]) -> Stage:
    ref_before = reference_s()
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # a crash is a failed stage, reported, not a dead run
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - start
    if code != 0:
        print(f"bench: stage {name} exited {code}", file=sys.stderr)
    ref_s = (ref_before + reference_s()) / 2.0
    return Stage(name, code == 0, seconds, out.getvalue(), ref_s)


def run_loop(cli, workload: Workload, seed: int, run_dir: Path, traced: bool) -> Loop:
    common = ["--seed", str(seed), "--out", str(run_dir)]
    for item in workload.settings:
        common += ["--set", item]
    loop = Loop(traced=traced, tracer=Tracer() if traced else None)
    context = instrumented(loop.tracer) if traced else contextlib.nullcontext()
    with context:
        for name in STAGES:
            spent = 0.0
            for _ in range(1 if traced else STAGE_MAX_REPS):
                stage = run_stage(cli, name, _stage_argv(name, run_dir) + common)
                loop.stages.append(stage)
                spent += stage.seconds
                if not stage.ok:
                    return loop
                if spent >= STAGE_MIN_S:
                    break
    return loop


def _infer_counts(stage: Stage) -> tuple[int, int]:
    match = INFER_LINE.search(stage.stdout)
    if match is None:
        raise ValueError(f"{stage.name}: no detection summary in output")
    return int(match.group(1)), int(match.group(2))


def stage_times(loops: list[Loop]) -> dict[str, float]:
    """Median time of each stage over its samples in `loops`, at reference
    speed: each sample is scaled by REF_NOMINAL_S over the reference time
    measured around it. The host's vCPUs slow down by 1.5-1.8x for seconds
    to minutes at a time, so a whole run can fall in a slow state; the
    reference slows with the stage and the ratio holds steadier."""
    return {name: statistics.median(s.seconds * REF_NOMINAL_S / s.ref_s
                                    for loop in loops for s in loop.stages
                                    if s.name == name)
            for name in STAGES}


def end_to_end(loops: list[Loop], reports: dict) -> dict[str, float]:
    t = stage_times(loops)
    _, gated_scenes = _infer_counts(loops[0].stage("infer_gated"))
    _, ungated_scenes = _infer_counts(loops[0].stage("infer_ungated"))
    return {
        "setup_s": t["gen"],
        "train_s": t["train1"] + t["train2"] + t["train3"],
        "infer_gated_scenes_per_s": gated_scenes / t["infer_gated"],
        "infer_ungated_scenes_per_s": ungated_scenes / t["infer_ungated"],
        "eval_s": t["eval_gated"] + t["eval_ungated"],
        "loop_s": sum(t.values()),
        "map_both": reports.get(GATED, {}).get("map_both"),
        "u_recall": reports.get(GATED, {}).get("u_recall"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# output checks


def _in_unit_range(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def check_run(loop: Loop, run_dir: Path) -> tuple[list[str], dict]:
    """Read every detection file and report back through the package's own
    readers; returns (failed checks, reports by detection file name)."""
    from openworld_kit import detection as det
    from openworld_kit import owod_eval as ev

    failures: list[str] = []
    world = run_dir / "world"
    known = set(ev.load_task_split(world / "task_split.json").known_classes(3))
    test_ids = {p.stem for p in (world / "scenes" / "test").glob("*.pyr")}
    reports: dict = {}
    for stage_name, file_name in (("infer_gated", GATED), ("infer_ungated", UNGATED)):
        path = run_dir / "detections" / file_name
        total, scenes = _infer_counts(loop.stage(stage_name))
        records = det.read_detections_jsonl(path)
        with open(path, "r", encoding="utf-8") as fh:
            lines = sum(1 for line in fh if line.strip())
        if not total == len(records) == lines:
            failures.append(f"{file_name}: reported {total}, read {len(records)}, "
                            f"{lines} lines")
        if scenes != len(test_ids):
            failures.append(f"{file_name}: {scenes} scenes inferred, {len(test_ids)} on disk")
        bad = [r for r in records
               if r.scene_id not in test_ids
               or (r.label not in known and r.label != "unknown")
               or not _in_unit_range(r.confidence)
               or not all(math.isfinite(v) for v in (*r.box, r.ood))
               or r.box[0] > r.box[2] or r.box[1] > r.box[3]]
        if bad:
            failures.append(f"{file_name}: {len(bad)} malformed detections, first {bad[0]}")

        report_path = run_dir / "reports" / (Path(file_name).stem + "_report.json")
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        reports[file_name] = report
        if report["config"]["detections"] != str(path):
            failures.append(f"{report_path.name}: scores {report['config']['detections']}")
        in_range = (
            all(_in_unit_range(report[k]) for k in ("map_both", "map_prev", "map_curr",
                                                      "u_recall"))
            and all(v is None or _in_unit_range(v) for v in report["per_class_ap"].values())
            and isinstance(report["a_ose"], int) and report["a_ose"] >= 0
            and (report["wi"] is None or (math.isfinite(report["wi"]) and report["wi"] >= 0))
        )
        if not in_range:
            failures.append(f"{report_path.name}: metric out of range")
    return failures, reports


def tree_diff(a: Path, b: Path) -> list[str]:
    """Relative paths whose presence or bytes differ between two trees."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diffs = sorted(str(p) for p in files_a ^ files_b)
    diffs += sorted(str(p) for p in files_a & files_b
                    if (a / p).read_bytes() != (b / p).read_bytes())
    return diffs


# ---------------------------------------------------------------------------
# one benchmark run


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def benchmark(cli, name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    workload = WORKLOADS[name]
    seed, skipped = world_seed(cli, workload, seed)
    run_dir = work / "run"
    first = work / "loop0"
    loops: list[Loop] = []
    checks: list[str] = []
    reports: dict = {}
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while len(loops) < MAX_LOOPS:
        traced = trace and len(loops) % 2 == 1
        started = time.perf_counter()
        loop = run_loop(cli, workload, seed, run_dir, traced)
        loops.append(loop)
        if not loop.complete:
            break
        if len(loops) == 1:
            try:
                failed, reports = check_run(loop, run_dir)
            except Exception as exc:  # an unreadable output fails the check
                traceback.print_exc()
                failed = [f"output check raised {exc!r}"]
            checks += failed
            run_dir.rename(first)
        else:
            diffs = tree_diff(first, run_dir)
            if diffs:
                checks.append(f"loop {len(loops) - 1} differs from loop 0: {diffs[:5]}")
            shutil.rmtree(run_dir)
        longest = max(longest, time.perf_counter() - started)
        if len(loops) >= MIN_LOOPS and time.perf_counter() + longest > deadline:
            break

    complete = [loop for loop in loops if loop.complete]
    plain = [loop for loop in complete if not loop.traced]
    e2e = end_to_end(plain, reports) if plain else {}
    for key, value in e2e.items():
        ratio = key in ("map_both", "u_recall")
        if value is None or not math.isfinite(value) or value <= 0.0 \
                or (ratio and value > 1.0):
            checks.append(f"metric {key}={value} out of range")

    layers: dict = {}
    traced_loops = [loop for loop in complete if loop.traced]
    if traced_loops:
        per_loop = [layer_metrics(loop.tracer) for loop in traced_loops]
        layers = {key: _median([m[key] for m in per_loop]) for key in per_loop[0]}
        layers["owod_eval.a_ose.gated"] = reports.get(GATED, {}).get("a_ose")
        layers["cli.trace.overhead_s"] = (
            sum(stage_times(traced_loops).values()) - sum(stage_times(plain).values()))
        _dump_spans(name, seed, traced_loops[-1].tracer)

    stages = [s for loop in loops for s in loop.stages]
    return {
        "e2e": e2e,
        "layers": {k: v for k, v in layers.items() if v is not None},
        "attempted": len(stages),
        "failed": sum(1 for s in stages if not s.ok),
        "checks": checks,
        "loops": [{"traced": loop.traced,
                   "stages": [[s.name, s.seconds, s.ref_s] for s in loop.stages],
                   "failed": [s.name for s in loop.stages if not s.ok]}
                  for loop in loops],
        "a_ose_gated": reports.get(GATED, {}).get("a_ose"),
        "world_seed": seed,
        "infeasible_seeds": skipped,
    }


def _dump_spans(name: str, seed: int, tracer: Tracer) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"columns": ["id", "parent", "name", "start", "end"],
                   "spans": tracer.spans}, fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    cli = load_package()
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        result = benchmark(cli, args.workload, args.seed, args.seconds,
                           bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in sorted(result["layers"].items())}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in result["e2e"].items()}
    detail = {key: result[key] for key in ("checks", "loops", "a_ose_gated", "world_seed",
                                           "infeasible_seeds")}
    detail.update(workload=args.workload, seed=args.seed,
                  settings=WORKLOADS[args.workload].settings, env=environment())
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": not result["checks"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last == "bytes":
        return "bytes"
    if last.endswith("share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
