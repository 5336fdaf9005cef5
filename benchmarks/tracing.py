"""Spans recorded from outside the program.

A :class:`Tracer` wraps named functions and methods of the ``oneshot_kgc``
package at every name their callers look up, and records one span per call:
``[name, start, end, parent, extra]`` with times from ``time.perf_counter``
and ``parent`` the index of the enclosing span (or -1). Spans stay in memory
until the benchmark writes them out.

Two target lists are used. The untraced run installs only the three probes
that split train-matcher into set-up, episode loop, validation and checkpoint
writes (one call per episode, so the cost does not show). The traced run
installs every layer boundary of :data:`LAYER_TARGETS` and every public
function of ``autodiff`` that returns a tensor. A target that no longer
exists is skipped and reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

PACKAGE = "oneshot_kgc"

# (module, attribute or Class.method) whose spans train-matcher's split needs
PROBE_TARGETS = [
    ("meta_trainer", "sample_episode"),
    ("evaluator", "evaluate_tasks"),
    ("autodiff", "save_checkpoint"),
]

LAYER_TARGETS = PROBE_TARGETS + [
    ("graph_store", "load_triples"),
    ("graph_store", "build_candidates"),
    ("graph_store", "build_neighbor_index"),
    ("dataset", "detect_inverse_relations"),
    ("dataset", "emit_dataset"),
    ("dataset", "load_dataset"),
    ("embeddings", "train_embeddings"),
    ("embeddings", "load_table"),
    ("matcher", "Matcher.encode_entities"),
    ("matcher", "Matcher.match_scores"),
    ("matcher", "Matcher.score_pairs"),
    ("autodiff", "backward"),
    ("autodiff", "Adam.step"),
    ("autodiff", "Adam.zero_grad"),
    ("evaluator", "rank_from_scores"),
    ("evaluator", "aggregate_kshot"),
]


class SetupReached(Exception):
    """Raised at the first episode when only the set-up is being timed."""


def _holds_tensor(value, tensor_type):
    if isinstance(value, tensor_type):
        return True
    return isinstance(value, tuple) and any(isinstance(v, tensor_type) for v in value)


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self.installed = set()
        self.stop_at_first_episode = False
        self._stack = []
        self._restore = []

    # ------------------------------------------------------------------
    # recording

    def open(self, name, extra=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, extra])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------------
    # installing wrappers

    def _wrap(self, name, fn, extra_fn=None, is_op=False, tensor_type=None):
        tracer = self
        self.installed.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "meta_trainer.sample_episode" and tracer.stop_at_first_episode:
                raise SetupReached()
            index = tracer.open(name, extra_fn(args) if extra_fn else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if is_op and _holds_tensor(result, tensor_type):
                span = tracer.spans[index]
                span[4] = dict(span[4] or {}, op=1)
            return result
        return wrapper

    def _patch(self, obj, attr, new):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self, targets, autodiff_ops=False):
        """Wrap each ``(module, attr)`` target at every binding in the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attr in targets:
            self._install_one(module_name, attr, modules)
        if autodiff_ops:
            ad = importlib.import_module(PACKAGE + ".autodiff")
            wrapped = {a for m, a in targets if m == "autodiff"}
            for attr, fn in sorted(vars(ad).items()):
                if (attr.startswith("_") or attr in wrapped or not inspect.isfunction(fn)
                        or fn.__module__ != ad.__name__):
                    continue
                extra = _matmul_extra if attr == "matmul" else None
                self._patch_bindings(fn, self._wrap("autodiff." + attr, fn, extra, is_op=True,
                                                    tensor_type=ad.Tensor), modules)
        return self

    def _install_one(self, module_name, attr, modules):
        full = "%s.%s" % (module_name, attr)
        try:
            owner = importlib.import_module("%s.%s" % (PACKAGE, module_name))
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
        except (ImportError, AttributeError):
            self.absent.append(full)
            return
        extra = _entities_extra if attr == "Matcher.encode_entities" else None
        wrapper = self._wrap(full, original, extra)
        if len(parts) > 1:
            self._patch(owner, parts[-1], wrapper)
        else:
            self._patch_bindings(original, wrapper, modules)

    def _patch_bindings(self, original, wrapper, modules):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapper)

    def uninstall(self):
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)


def _entities_extra(args):
    # Matcher.encode_entities(self, entity_ids, graph, ...)
    return {"n": len(args[1])}


def _matmul_extra(args):
    # matmul(a, b) with 2-D tensors or arrays
    (m, k), n = args[0].shape, args[1].shape[1]
    return {"flop": 2 * m * k * n}


# ---------------------------------------------------------------------------
# per-layer metrics from one run's spans

TRAIN = "stage.train_matcher"
SETUP_STAGES = (TRAIN, "stage.setup_probe")
OUTSIDE_EPISODES = ("evaluator.evaluate_tasks", "autodiff.save_checkpoint")


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


class SpanIndex:
    """One pass over a run's spans: stage, episode and op-leaf of each span.

    A span belongs to episode ``i`` of train-matcher when it opens after the
    ``i``-th ``sample_episode`` call and is not inside a validation
    (``evaluate_tasks``) or a checkpoint write; spans before the first
    episode belong to set-up (episode -1).
    """

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.stage = [None] * n
        self.root = [0] * n
        self.episode = [-1] * n
        self.outside = [False] * n
        self.leaf_op = [False] * n
        has_op_child = [False] * n
        episode = -1
        for i, (name, _, _, parent, extra) in enumerate(spans):
            if parent < 0:
                self.stage[i] = name
                self.root[i] = i
                episode = -1
            else:
                self.stage[i] = self.stage[parent]
                self.root[i] = self.root[parent]
                self.outside[i] = self.outside[parent] or name in OUTSIDE_EPISODES
                if extra and extra.get("op"):
                    has_op_child[parent] = True
            if name == "meta_trainer.sample_episode":
                episode += 1
            self.episode[i] = episode
        for i, span in enumerate(spans):
            self.leaf_op[i] = bool(span[4] and span[4].get("op")) and not has_op_child[i]
        # (train-matcher run, episode) of every training episode
        self.episodes = sorted({(self.root[i], e) for i, e in enumerate(self.episode)
                                if self.stage[i] == TRAIN and e >= 0})

    def value(self, i, key):
        span = self.spans[i]
        return span[2] - span[1] if key is None else (span[4] or {}).get(key, 0)

    def total(self, stage, name, key=None):
        """Median over runs of ``stage`` of the summed value of ``name`` spans."""
        per_run = {i: 0 for i, s in enumerate(self.spans) if s[3] < 0 and s[0] == stage}
        for i, s in enumerate(self.spans):
            if s[0] == name and self.stage[i] == stage:
                per_run[self.root[i]] += 1 if key == "count" else self.value(i, key)
        return _median(per_run.values())

    def setup_median(self, name):
        """Median over train-matcher set-ups of the time spent in ``name``."""
        totals = {i: 0.0 for i, s in enumerate(self.spans) if s[3] < 0 and s[0] in SETUP_STAGES}
        for i, s in enumerate(self.spans):
            if s[0] == name and self.stage[i] in SETUP_STAGES and self.episode[i] < 0:
                totals[self.root[i]] += s[2] - s[1]
        return _median(totals.values())

    def episode_median(self, select, key=None):
        """Median over the episodes of every train-matcher run of the summed
        value of the selected spans."""
        per = dict.fromkeys(self.episodes, 0.0)
        for i, s in enumerate(self.spans):
            if (self.stage[i] == TRAIN and self.episode[i] >= 0 and not self.outside[i]
                    and select(i, s)):
                per[self.root[i], self.episode[i]] += 1 if key == "count" else self.value(i, key)
        return _median(per.values())


def _named(name):
    return lambda i, s: s[0] == name


EVAL1, EVALK = "stage.evaluate_1shot", "stage.evaluate_kshot"

# name -> (unit, better, target the metric needs, function of a SpanIndex)
LAYER_METRICS = {
    "graph_store.load_triples_s": ("s", "lower", "graph_store.load_triples",
        lambda x: x.total("stage.build_dataset", "graph_store.load_triples")),
    "graph_store.build_candidates_s": ("s", "lower", "graph_store.build_candidates",
        lambda x: x.total("stage.build_dataset", "graph_store.build_candidates")),
    "graph_store.build_candidates_calls": ("count", "lower", "graph_store.build_candidates",
        lambda x: x.total("stage.build_dataset", "graph_store.build_candidates", "count")),
    "graph_store.build_neighbor_index_s": ("s", "lower", "graph_store.build_neighbor_index",
        lambda x: x.setup_median("graph_store.build_neighbor_index")),
    "dataset.detect_inverse_relations_s": ("s", "lower", "dataset.detect_inverse_relations",
        lambda x: x.total("stage.build_dataset", "dataset.detect_inverse_relations")),
    "dataset.emit_dataset_s": ("s", "lower", "dataset.emit_dataset",
        lambda x: x.total("stage.build_dataset", "dataset.emit_dataset")),
    "dataset.load_dataset_s": ("s", "lower", "dataset.load_dataset",
        lambda x: x.setup_median("dataset.load_dataset")),
    "embeddings.train_embeddings_s": ("s", "lower", "embeddings.train_embeddings",
        lambda x: x.total("stage.train_embeddings", "embeddings.train_embeddings")),
    "embeddings.load_table_s": ("s", "lower", "embeddings.load_table",
        lambda x: x.setup_median("embeddings.load_table")),
    "meta_trainer.sample_episode_ms": ("ms", "lower", "meta_trainer.sample_episode",
        lambda x: 1e3 * x.episode_median(_named("meta_trainer.sample_episode"))),
    "meta_trainer.validate_s": ("s", "lower", "evaluator.evaluate_tasks",
        lambda x: x.total(TRAIN, "evaluator.evaluate_tasks")),
    "autodiff.save_checkpoint_s": ("s", "lower", "autodiff.save_checkpoint",
        lambda x: x.total(TRAIN, "autodiff.save_checkpoint")),
    "matcher.encode_ms": ("ms", "lower", "matcher.Matcher.encode_entities",
        lambda x: 1e3 * x.episode_median(_named("matcher.Matcher.encode_entities"))),
    "matcher.encoded_entities_per_episode": ("count", "lower", "matcher.Matcher.encode_entities",
        lambda x: x.episode_median(_named("matcher.Matcher.encode_entities"), "n")),
    "matcher.match_ms": ("ms", "lower", "matcher.Matcher.match_scores",
        lambda x: 1e3 * x.episode_median(_named("matcher.Matcher.match_scores"))),
    "matcher.eval_encoded_entities": ("count", "lower", "matcher.Matcher.encode_entities",
        lambda x: x.total(EVAL1, "matcher.Matcher.encode_entities", "n")),
    "matcher.eval_score_calls": ("count", "lower", "matcher.Matcher.score_pairs",
        lambda x: x.total(EVAL1, "matcher.Matcher.score_pairs", "count")),
    "matcher.kshot_encoded_entities": ("count", "lower", "matcher.Matcher.encode_entities",
        lambda x: x.total(EVALK, "matcher.Matcher.encode_entities", "n")),
    "matcher.kshot_score_calls": ("count", "lower", "matcher.Matcher.score_pairs",
        lambda x: x.total(EVALK, "matcher.Matcher.score_pairs", "count")),
    "autodiff.backward_ms": ("ms", "lower", "autodiff.backward",
        lambda x: 1e3 * x.episode_median(_named("autodiff.backward"))),
    "autodiff.adam_step_ms": ("ms", "lower", "autodiff.Adam.step",
        lambda x: 1e3 * x.episode_median(_named("autodiff.Adam.step"))),
    "autodiff.zero_grad_ms": ("ms", "lower", "autodiff.Adam.zero_grad",
        lambda x: 1e3 * x.episode_median(_named("autodiff.Adam.zero_grad"))),
    "autodiff.ops_per_episode": ("count", "lower", None,
        lambda x: x.episode_median(lambda i, s: x.leaf_op[i], "count")),
    "autodiff.matmuls_per_episode": ("count", "lower", "autodiff.matmul",
        lambda x: x.episode_median(_named("autodiff.matmul"), "count")),
    "autodiff.matmul_mflop_per_episode": ("Mflop", "lower", "autodiff.matmul",
        lambda x: 1e-6 * x.episode_median(_named("autodiff.matmul"), "flop")),
    "evaluator.evaluate_tasks_s": ("s", "lower", "evaluator.evaluate_tasks",
        lambda x: x.total(EVAL1, "evaluator.evaluate_tasks")),
    "evaluator.rank_s": ("s", "lower", "evaluator.rank_from_scores",
        lambda x: x.total(EVAL1, "evaluator.rank_from_scores")),
    "evaluator.kshot_evaluate_tasks_s": ("s", "lower", "evaluator.evaluate_tasks",
        lambda x: x.total(EVALK, "evaluator.evaluate_tasks")),
    "evaluator.kshot_fuse_s": ("s", "lower", "evaluator.aggregate_kshot",
        lambda x: x.total(EVALK, "evaluator.aggregate_kshot")),
}


def layer_metrics(spans, installed):
    """(values, absent metric names) for one run's spans."""
    index = SpanIndex(spans)
    values, missing = {}, []
    for name, (_, _, needs, fn) in LAYER_METRICS.items():
        if needs is not None and needs not in installed:
            missing.append(name)
        else:
            values[name] = fn(index)
    return values, missing
