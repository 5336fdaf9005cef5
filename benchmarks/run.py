#!/usr/bin/env python3
"""Pipeline benchmark for oneshot-kgc.

    python3 benchmarks/run.py --workload synthetic-2k --seed 1 --seconds 55 --trace 0

Each run is one process that builds its inputs from ``--seed`` and drives
the program only through its subcommands, called in-process through
``oneshot_kgc.cli.main(argv)``: build-dataset, train-embeddings,
train-matcher, evaluate 1-shot ``--filter-known`` and evaluate ``--shots 5``.
It runs the pipeline once, then times the workload's rotation of stages
again and again until ``--seconds`` have passed (at least ``min_rotations``
times), and reports each stage's median. It reads only what the subcommands
write and checks those outputs with the independent checks of ``checks.py``.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a run whose layer
boundaries are wrapped by ``tracing.py``, and the spans are written to
``.bench_out/spans-<workload>-seed<seed>.json``. See README.md.
"""

import os

# BLAS runs single-threaded, so the single-process load uses one core
# (at most nproc); set before NumPy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import nell_shape  # noqa: E402
import tracing  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SYNTHETIC_ENTITIES = 2000
SYNTHETIC_RELATIONS = 30
SYNTHETIC_MARKER = "brel_00"      # the program's synthetic tail-beacon relation
SHOTS = 5
REORDER_RELATIONS = 2             # test relations re-ranked with candidates reversed
ABOVE_RANDOM = 3.0                # synthetic-2k MRR must exceed this x random MRR


@dataclass(frozen=True)
class Workload:
    graph: str                    # "synthetic" (program generator) or "nell" (nell_shape)
    counts: tuple                 # train, valid, test task relations
    dim: int
    batch: int
    episodes: int
    eval_interval: int
    embed_epochs: int
    embed_lr: float
    embed_batch: int
    rotation: tuple               # stages sampled again, in this order, after the pipeline
    min_rotations: int            # whole rotations run even past the deadline
    band: tuple = None            # build-dataset task-relation frequency band


# One timing of a stage reads up to 30% apart from the next on a shared
# 2-vCPU host, so each stage is timed several times per run, spread over the
# run, and reported as the median. synthetic-2k trains TransE for 5 epochs:
# at 20 the later epochs update only the few margin-violating negatives left,
# so the time per triple depended on how fast each seed's graph converged.
# A nell-newrel run is its pipeline (~35 s) and one rotation: build-dataset
# (9 s) and train-matcher (5 s) are not repeated there, to keep both
# workloads' runs of a comparison within an hour.
WORKLOADS = {
    "synthetic-2k": Workload("synthetic", (6, 2, 2), dim=32, batch=32, episodes=100,
                             eval_interval=50, embed_epochs=5, embed_lr=0.02,
                             embed_batch=512,
                             rotation=("evaluate_1shot", "build_dataset", "train_embeddings",
                                       "setup_probe", "evaluate_kshot", "evaluate_1shot",
                                       "build_dataset", "train_embeddings", "train_matcher"),
                             min_rotations=2),
    "nell-newrel": Workload("nell", (11, 5, 51), dim=100, batch=128, episodes=8,
                            eval_interval=4, embed_epochs=1, embed_lr=0.01,
                            embed_batch=16384,
                            rotation=("evaluate_1shot", "evaluate_kshot", "setup_probe",
                                      "train_embeddings", "evaluate_1shot", "evaluate_kshot",
                                      "setup_probe"),
                            min_rotations=1, band=(5, 50)),
}

END_TO_END = {
    "setup_s": "s",
    "build_dataset_s": "s",
    "dataset_mb": "MiB",
    "embed_triples_per_s": "1/s",
    "train_episodes_per_s": "1/s",
    "train_matcher_s": "s",
    "eval_candidates_per_s": "1/s",
    "kshot_candidates_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

STAGES = ("build_dataset", "train_embeddings", "train_matcher", "evaluate_1shot",
          "evaluate_kshot")


class StageFailed(Exception):
    pass


def import_program():
    """Import the program from this checkout's ``src``, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "oneshot_kgc", "cli.py")):
        raise StageFailed("no program source at %s" % os.path.join(src, "oneshot_kgc"))
    sys.path.insert(0, src)
    from oneshot_kgc import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise StageFailed("imported oneshot_kgc from %s, not from %s" % (cli.__file__, src))
    return cli


class Round:
    """One pass through the pipeline in a fresh work directory, followed by
    further samples of its stages."""

    def __init__(self, cli, tracer, workload, seed, work):
        self.cli = cli
        self.tracer = tracer
        self.w = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures = []          # check messages
        self.quality = ""
        self.samples = {}           # stage -> span indices of its timed runs
        self.log_path = os.path.join(work, "program-output.txt")

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def program(self, stage, argv, setup_only=False):
        """Run one subcommand inside a span named after ``stage``; returns its index."""
        self.attempted += 1
        gc.collect()
        self.tracer.stop_at_first_episode = setup_only
        rc = None
        with open(self.log_path, "a", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            index = self.tracer.open("stage." + stage)
            try:
                rc = self.cli.main(argv)
            except tracing.SetupReached:
                rc = 0 if setup_only else None
            finally:
                self.tracer.close(index)
                self.tracer.stop_at_first_episode = False
        if rc != 0:
            with open(self.log_path, encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            raise StageFailed("%s exited with %r: %s\n%s" % (stage, rc, " ".join(argv), tail))
        self.samples.setdefault(stage, []).append(index)
        return index

    def seconds(self, index):
        span = self.tracer.spans[index]
        return span[2] - span[1]

    def check(self, fn, *args):
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.failures.append("%s: %s" % (fn.__name__, exc))

    # ------------------------------------------------------------------
    # command lines; ``out`` names where the sample writes

    def build_argv(self, out):
        argv = ["build-dataset", "--input", self.path("dump.tsv"), "--out", self.path(out),
                "--counts", "%d,%d,%d" % self.w.counts, "--seed", str(self.seed)]
        if self.w.band:
            argv += ["--band-lo", str(self.w.band[0]), "--band-hi", str(self.w.band[1])]
        return argv

    def embed_argv(self, out):
        w = self.w
        return ["train-embeddings", "--dataset", self.path("dataset"), "--model", "TransE",
                "--out", self.path(out), "--set", "dim=%d" % w.dim,
                "--set", "embedding_epochs=%d" % w.embed_epochs,
                "--set", "embedding_lr=%g" % w.embed_lr,
                "--set", "embedding_batch_size=%d" % w.embed_batch,
                "--set", "seed=%d" % self.seed]

    def train_argv(self, out):
        w = self.w
        return ["train-matcher", "--dataset", self.path("dataset"),
                "--table", self.path("table"), "--out", self.path(out),
                "--set", "dim=%d" % w.dim, "--set", "hidden=%d" % (2 * w.dim),
                "--set", "batch_size=%d" % w.batch, "--set", "max_episodes=%d" % w.episodes,
                "--set", "eval_interval=%d" % w.eval_interval, "--set", "seed=%d" % self.seed]

    def evaluate_argv(self, out, shots, dataset="dataset"):
        argv = ["evaluate", "--dataset", self.path(dataset),
                "--checkpoint", self.path("run", "matcher"), "--split", "test",
                "--workers", "1", "--set", "seed=%d" % self.seed, "--out", self.path(out)]
        return argv + (["--shots", str(shots)] if shots > 1 else ["--filter-known"])

    # ------------------------------------------------------------------

    def run(self, deadline):
        """The pipeline once with every check, then rotations of further stage
        samples until ``deadline`` has passed and ``min_rotations`` are done."""
        self.pipeline()
        for _ in range(self.w.min_rotations):
            for stage in self.w.rotation:
                self.sample(stage)
        while time.perf_counter() < deadline:
            for stage in self.w.rotation:
                if time.perf_counter() >= deadline:
                    break
                self.sample(stage)
        return self.metrics()

    def pipeline(self):
        w, seed = self.w, self.seed
        dump = self.path("dump.tsv")
        if w.graph == "synthetic":
            self.program("generate", ["generate-synthetic", "--out", dump, "--seed", str(seed)])
            marker = SYNTHETIC_MARKER
            with open(dump, encoding="utf-8") as fh:
                shape = (SYNTHETIC_ENTITIES, SYNTHETIC_RELATIONS, sum(1 for _ in fh))
        else:
            nell_shape.write_dump(dump, nell_shape.generate(seed))
            marker = nell_shape.MARKER
            shape = (nell_shape.N_ENTITIES, nell_shape.N_RELATIONS, nell_shape.N_TRIPLES)

        self.program("build_dataset", self.build_argv("dataset"))
        ds = self.ds = checks.DatasetView.read(self.path("dataset"))
        self.check(checks.check_dataset_shape, ds, *shape, w.counts)
        self.check(checks.check_candidates, ds)
        self.check(checks.check_oracle, ds, nell_shape.beacon_oracle(ds.background, marker))

        self.program("train_embeddings", self.embed_argv("table"))
        self.program("train_matcher", self.train_argv("run"))
        self.check(checks.check_training_log, self.path("run", "training-log.jsonl"), w.episodes)

        self.program("evaluate_1shot", self.evaluate_argv("report-1.json", 1))
        self.program("evaluate_kshot", self.evaluate_argv("report-k.json", SHOTS))
        self.report_1 = checks.read_report(self.path("report-1.json"))
        self.report_k = checks.read_report(self.path("report-k.json"))
        self.check(checks.check_report, self.report_1, ds, "test", 1, True)
        self.check(checks.check_report, self.report_k, ds, "test", SHOTS, False)
        self.check(checks.check_metrics, self.report_1)
        self.check(checks.check_metrics, self.report_k)
        if w.graph == "synthetic":
            self.check(checks.check_above_random, self.report_1, ABOVE_RANDOM)
        self.quality = ("test MRR 1-shot %.4f (random ranking %.4f), %d-shot %.4f"
                        % (self.report_1["overall"]["mrr"], checks.random_mrr(self.report_1),
                           SHOTS, self.report_k["overall"]["mrr"]))

        sample = random.Random(seed).sample(sorted(ds.split("test")),
                                            min(REORDER_RELATIONS, len(ds.split("test"))))
        write_reversed(ds, self.path("dataset"), self.path("dataset-reversed"), sample)
        self.program("evaluate_reorder", self.evaluate_argv("report-reversed.json", 1,
                                                            "dataset-reversed"))
        self.check(checks.check_same_ranks, self.report_1,
                   checks.read_report(self.path("report-reversed.json")))

    def sample(self, stage):
        """One more timed run of ``stage``, writing beside the pipeline's outputs.
        Repeated evaluations must give the pipeline's ranks again."""
        if stage == "build_dataset":
            self.program(stage, self.build_argv("dataset-again"))
        elif stage == "train_embeddings":
            self.program(stage, self.embed_argv("table-again"))
        elif stage == "train_matcher":
            self.program(stage, self.train_argv("run-again"))
            self.check(checks.check_training_log, self.path("run-again", "training-log.jsonl"),
                       self.w.episodes)
        elif stage == "setup_probe":
            self.program(stage, self.train_argv("probe"), setup_only=True)
        elif stage in ("evaluate_1shot", "evaluate_kshot"):
            one = stage == "evaluate_1shot"
            out = "report-1-again.json" if one else "report-k-again.json"
            self.program(stage, self.evaluate_argv(out, 1 if one else SHOTS))
            self.check(checks.check_same_ranks, self.report_1 if one else self.report_k,
                       checks.read_report(self.path(out)))
        else:
            raise ValueError("no sample for stage %r" % stage)

    def median_seconds(self, stage):
        return statistics.median(self.seconds(i) for i in self.samples[stage])

    def metrics(self):
        trains = self.samples["train_matcher"]
        setups = ([self.setup_time(i) for i in trains]
                  + [self.seconds(i) for i in self.samples.get("setup_probe", [])])
        stages = {stage: self.median_seconds(stage) for stage in STAGES}
        metrics = {
            "setup_s": statistics.median(setups),
            "build_dataset_s": stages["build_dataset"],
            "dataset_mb": directory_bytes(self.path("dataset")) / 2 ** 20,
            "embed_triples_per_s": (self.w.embed_epochs * len(self.ds.background)
                                    / stages["train_embeddings"]),
            "train_episodes_per_s": 1.0 / statistics.median(
                t for i in trains for t in self.episode_times(i)),
            "train_matcher_s": stages["train_matcher"],
            "eval_candidates_per_s": candidates(self.report_1) / stages["evaluate_1shot"],
            "kshot_candidates_per_s": candidates(self.report_k) / stages["evaluate_kshot"],
        }
        counts = {stage: len(self.samples[stage]) for stage in STAGES}
        counts["setup"] = len(setups)
        return metrics, stages, counts

    def _under(self, root):
        spans = self.tracer.spans
        inside = {root}
        for i in range(root + 1, len(spans)):
            if spans[i][3] in inside:
                inside.add(i)
                yield spans[i]

    def setup_time(self, train_index):
        """Seconds from the train-matcher call to its first episode."""
        first = next(s for s in self._under(train_index)
                     if s[0] == "meta_trainer.sample_episode")
        return first[1] - self.tracer.spans[train_index][1]

    def episode_times(self, train_index):
        """Each episode's seconds, validation and checkpoint writes excluded.

        An episode runs from its ``sample_episode`` call to the next one; the
        last runs to the final checkpoint write after the loop.
        """
        spans = list(self._under(train_index))
        bounds = [s[1] for s in spans if s[0] == "meta_trainer.sample_episode"]
        bounds.append([s for s in spans if s[0] == "autodiff.save_checkpoint"][-1][1])
        times = []
        for start, end in zip(bounds, bounds[1:]):
            excluded = sum(s[2] - s[1] for s in spans
                           if s[0] in tracing.OUTSIDE_EPISODES and start <= s[1] < end)
            times.append(end - start - excluded)
        return times


def write_reversed(ds, src, dst, relations):
    """A copy of the dataset whose test split is ``relations`` with every
    candidate list reversed."""
    os.makedirs(os.path.join(dst, "tasks"))
    for name in ("entities.txt", "relations.txt", "background.txt"):
        shutil.copyfile(os.path.join(src, name), os.path.join(dst, name))
    manifest = dict(ds.manifest, meta_train=[], meta_valid=[], meta_test=list(relations))
    with open(os.path.join(dst, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    for rel in relations:
        task = ds.tasks[rel]
        payload = dict(task, queries=[dict(q, candidates=q["candidates"][::-1])
                                      for q in task["queries"]])
        with open(os.path.join(dst, "tasks", ds.files[rel]), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def directory_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path)
               for f in files)


def candidates(report):
    return sum(row["n_candidates"] for row in report["queries"])


def calibrate():
    """Seconds for a fixed pure-Python loop and a fixed 400x400 matmul (x20)."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    loop = time.perf_counter() - start
    a = np.random.default_rng(0).standard_normal((400, 400))
    start = time.perf_counter()
    for _ in range(20):
        a @ a
    return loop, time.perf_counter() - start


def stages_path(workload, seed):
    return os.path.join(OUT_DIR, "stages-%s-seed%d.json" % (workload, seed))


def overhead_line(workload, seed, stages):
    """Traced minus untraced stage times, against the untraced run of the same
    seed or else the latest untraced run of the workload."""
    path = stages_path(workload, seed)
    if not os.path.exists(path):
        found = glob.glob(os.path.join(OUT_DIR, "stages-%s-seed*.json" % workload))
        if not found:
            return "tracing overhead: no untraced run of %s in %s" % (workload, OUT_DIR)
        path = max(found, key=os.path.getmtime)
    with open(path, encoding="utf-8") as fh:
        base = json.load(fh)
    parts = ["%s %+.3f s (%+.1f%%)" % (k, stages[k] - base["stages"][k],
                                        100.0 * (stages[k] / base["stages"][k] - 1.0))
             for k in STAGES]
    return ("tracing overhead vs untraced seed %d (traced - untraced): %s"
            % (base["seed"], ", ".join(parts)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_program()
    except (StageFailed, ImportError) as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2

    tracer = tracing.Tracer()
    tracer.install(tracing.LAYER_TARGETS if args.trace else tracing.PROBE_TARGETS,
                   autodiff_ops=bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    calibration = [calibrate()]
    deadline = time.perf_counter() + args.seconds
    work = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    rnd = Round(cli, tracer, WORKLOADS[args.workload], args.seed, work)
    try:
        metrics, stages, counts = rnd.run(deadline)
    except StageFailed as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 1
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)
    calibration.append(calibrate())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("workload %s, seed %d, BLAS threads %s" % (args.workload, args.seed, BLAS_THREADS))
    print("calibration (start, end): python loop %.4f s, %.4f s; matmul %.4f s, %.4f s"
          % (calibration[0][0], calibration[1][0], calibration[0][1], calibration[1][1]))
    for name, value in stages.items():
        print("stage %-18s %10.4f s  median of %d" % (name, value, counts[name]))
    print("setup median of %d" % counts["setup"])
    print(rnd.quality)
    for message in rnd.failures:
        print("CHECK FAILED: %s" % message)

    if args.trace:
        values, absent = tracing.layer_metrics(tracer.spans, tracer.installed)
        spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"],
                       "absent": tracer.absent, "spans": tracer.spans}, fh)
        print("spans written to %s" % os.path.relpath(spans_path, ROOT))
        print(overhead_line(args.workload, args.seed, stages))
        out = {}
        for name, (unit, _, _, _) in tracing.LAYER_METRICS.items():
            if name in absent:
                print("layer %-40s absent" % name)
                continue
            out[name] = {"value": values[name], "unit": unit}
            print("layer %-40s %14.6f %s" % (name, values[name], unit))
    else:
        with open(stages_path(args.workload, args.seed), "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "stages": stages}, fh)
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
        for name, m in out.items():
            print("metric %-24s %14.6f %s" % (name, m["value"], m["unit"]))

    print(json.dumps({"correct": not rnd.failures, "attempted": rnd.attempted, "failed": 0,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
