"""Tests of the benchmark's own checks, generator and tracer.

Run with ``python3 -m pytest benchmarks -q``. Each check passes on a
consistent input and fails on a corrupted one.
"""

import copy
import json
import math
import os
import sys
from collections import Counter

import pytest

import checks
import nell_shape
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MARKER = "concept:beaconof"
REL = "concept:task"


def tiny_dataset():
    """Two true tails (beacon b0) and two distractors (beacon b1) of type pool."""
    background = [("concept:pool:t0", MARKER, "concept:beacon:b0"),
                  ("concept:pool:t1", MARKER, "concept:beacon:b0"),
                  ("concept:pool:d0", MARKER, "concept:beacon:b1"),
                  ("concept:pool:d1", MARKER, "concept:beacon:b1")]
    cands = ["concept:pool:t0", "concept:pool:t1", "concept:pool:d0", "concept:pool:d1"]
    task = {"relation": REL,
            "reference": ["concept:head:h0", REL, "concept:pool:t0"],
            "queries": [{"head": "concept:head:h0", "truth": "concept:pool:t1",
                         "candidates": list(cands)},
                        {"head": "concept:head:h1", "truth": "concept:pool:t0",
                         "candidates": list(cands)},
                        {"head": "concept:head:h1", "truth": "concept:pool:t1",
                         "candidates": list(cands)}]}
    entities = cands + ["concept:head:h0", "concept:head:h1",
                        "concept:beacon:b0", "concept:beacon:b1"]
    manifest = {"meta_train": [], "meta_valid": [], "meta_test": [REL],
                "background": [MARKER]}
    return checks.DatasetView(entities, [MARKER, REL], background, manifest, {REL: task})


def tiny_report(ds, ranks=(1, 1, 2), filter_known=True):
    task = ds.tasks[REL]
    rows = []
    for q, rank in zip(task["queries"], ranks):
        n = len(checks.filtered_candidates(task, q) if filter_known else q["candidates"])
        rows.append({"relation": REL, "head": q["head"], "truth": q["truth"],
                     "rank": rank, "n_candidates": n})
    metrics = checks.recompute_metrics([r["rank"] for r in rows])
    return {"overall": metrics, "per_relation": {REL: dict(metrics)}, "queries": rows}


def fails(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


def test_dataset_shape():
    ds = tiny_dataset()
    checks.check_dataset_shape(ds, 8, 2, 8, (0, 0, 1))
    fails(checks.check_dataset_shape, ds, 9, 2, 8, (0, 0, 1))
    fails(checks.check_dataset_shape, ds, 8, 2, 8, (0, 1, 0))
    ds.background.pop()
    fails(checks.check_dataset_shape, ds, 8, 2, 8, (0, 0, 1))


def test_candidates_hold_truth_of_an_observed_type():
    ds = tiny_dataset()
    checks.check_candidates(ds)
    ds.tasks[REL]["queries"][0]["candidates"].remove("concept:pool:t1")
    fails(checks.check_candidates, ds)
    ds = tiny_dataset()
    ds.tasks[REL]["queries"][1]["candidates"].append("concept:head:h0")
    fails(checks.check_candidates, ds)


def test_oracle_ranks_truth_first():
    ds = tiny_dataset()
    checks.check_oracle(ds, nell_shape.beacon_oracle(ds.background, MARKER))
    # a distractor that carries the true beacon ties with the truth
    ds.background[2] = ("concept:pool:d0", MARKER, "concept:beacon:b0")
    fails(checks.check_oracle, ds, nell_shape.beacon_oracle(ds.background, MARKER))


def test_training_log(tmp_path):
    path = tmp_path / "log.jsonl"
    records = [{"step": i, "loss": 1.0 / i} for i in range(1, 5)] + [{"step": 4, "hits10": 0.5}]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    checks.check_training_log(str(path), 4)
    fails(checks.check_training_log, str(path), 5)
    records[2]["loss"] = math.nan
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    fails(checks.check_training_log, str(path), 4)


def test_report_coverage_and_range():
    ds = tiny_dataset()
    good = tiny_report(ds)
    checks.check_report(good, ds, "test", 1, True)

    dropped = copy.deepcopy(good)
    dropped["queries"].pop()
    fails(checks.check_report, dropped, ds, "test", 1, True)

    doubled = copy.deepcopy(good)
    doubled["queries"][2] = dict(doubled["queries"][1])
    fails(checks.check_report, doubled, ds, "test", 1, True)

    for bad_rank in (0, 4):
        out_of_range = copy.deepcopy(good)
        out_of_range["queries"][0]["rank"] = bad_rank
        fails(checks.check_report, out_of_range, ds, "test", 1, True)

    unfiltered = tiny_report(ds, filter_known=False)
    fails(checks.check_report, unfiltered, ds, "test", 1, True)


def test_kshot_report_excludes_promoted_queries():
    ds = tiny_dataset()
    kshot = tiny_report(ds, filter_known=False)
    kshot["queries"] = kshot["queries"][2:]        # two queries promoted to references
    checks.check_report(kshot, ds, "test", 3, False)
    fails(checks.check_report, tiny_report(ds, filter_known=False), ds, "test", 3, False)


def test_metrics_recomputed_from_ranks():
    ds = tiny_dataset()
    report = tiny_report(ds)
    checks.check_metrics(report)
    report["queries"][2]["rank"] = 1
    fails(checks.check_metrics, report)


def test_same_ranks_under_reversed_candidates():
    ds = tiny_dataset()
    report = tiny_report(ds)
    checks.check_same_ranks(report, copy.deepcopy(report))
    changed = copy.deepcopy(report)
    changed["queries"][0]["rank"] = 2
    fails(checks.check_same_ranks, report, changed)
    fails(checks.check_same_ranks, report, {"queries": []})


def test_above_random():
    ds = tiny_dataset()
    # three candidates each: random MRR = (1 + 1/2 + 1/3) / 3
    good = tiny_report(ds, ranks=(1, 1, 1))
    assert checks.random_mrr(good) == pytest.approx(11 / 18)
    checks.check_above_random(good, 1.5)
    fails(checks.check_above_random, tiny_report(ds, ranks=(3, 3, 2)), 1.5)


def test_nell_shape_generator():
    rows = nell_shape.generate(5)
    assert len(rows) == nell_shape.N_TRIPLES == len(set(rows))
    assert len({e for h, _, t in rows for e in (h, t)}) == nell_shape.N_ENTITIES
    relations = Counter(r for _, r, _ in rows)
    assert len(relations) == nell_shape.N_RELATIONS
    tasks = [r for r in relations if r.startswith("concept:task_")]
    assert len(tasks) == nell_shape.N_TASKS
    assert all(relations[r] == nell_shape.TASK_TRIPLES for r in tasks)
    degree = Counter(h for h, r, _ in rows if not r.startswith("concept:task_"))
    assert len(degree) == nell_shape.N_ENTITIES
    assert 1 == min(degree.values()) and max(degree.values()) <= 49
    assert rows == nell_shape.generate(5)
    assert rows != nell_shape.generate(6)


def test_tracer_wraps_every_binding_and_names_absent_targets():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from oneshot_kgc import cli, dataset, graph_store

    original = graph_store.build_candidates
    tracer = tracing.Tracer().install([("graph_store", "build_candidates"),
                                       ("graph_store", "no_such_function")])
    try:
        assert dataset.build_candidates is graph_store.build_candidates is not original
        assert cli.load_triples is graph_store.load_triples
        vocab = graph_store.Vocab()
        for name in ("concept:a:x", "concept:a:y", "concept:b:z"):
            vocab.add_entity(name)
        assert dataset.build_candidates(0, {0}, vocab, floor=1) == [0, 1]
    finally:
        tracer.uninstall()
    assert dataset.build_candidates is original
    assert tracer.absent == ["graph_store.no_such_function"]
    assert [s[0] for s in tracer.spans] == ["graph_store.build_candidates"]
