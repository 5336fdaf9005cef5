"""Correctness checks on what the pipeline writes, computed apart from the program.

Each check reads the dataset directory, training log or evaluation report
through this module's own parsers and raises :class:`CheckFailed` on the
first violation. None compares against a stored copy of earlier output.
"""

from __future__ import annotations

import glob
import json
import math
import os


class CheckFailed(Exception):
    pass


def _require(condition, message, *args):
    if not condition:
        raise CheckFailed(message % args)


def entity_type(name):
    """The second ':' segment of a NELL-style name, else the whole name."""
    parts = name.split(":")
    return parts[1] if len(parts) >= 2 else name


class DatasetView:
    """A built dataset directory, read without the program's loader."""

    def __init__(self, entities, relations, background, manifest, tasks, files=None):
        self.entities = entities        # list of names
        self.relations = relations      # list of names
        self.background = background    # list of (head, relation, tail) names
        self.manifest = manifest        # dict with meta_train/meta_valid/meta_test
        self.tasks = tasks              # relation name -> task payload
        self.files = files or {}        # relation name -> task file name

    @classmethod
    def read(cls, path):
        def lines(name):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                return fh.read().splitlines()
        background = [tuple(line.split("\t")) for line in lines("background.txt")]
        with open(os.path.join(path, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        tasks, files = {}, {}
        for task_path in sorted(glob.glob(os.path.join(path, "tasks", "*.json"))):
            with open(task_path, encoding="utf-8") as fh:
                payload = json.load(fh)
            tasks[payload["relation"]] = payload
            files[payload["relation"]] = os.path.basename(task_path)
        return cls(lines("entities.txt"), lines("relations.txt"), background, manifest,
                   tasks, files)

    def split(self, bucket):
        return self.manifest["meta_" + bucket]

    def n_triples(self):
        return len(self.background) + sum(1 + len(t["queries"]) for t in self.tasks.values())


def known_tails(task):
    """head -> set of tails of the task relation (reference plus queries)."""
    known = {}
    ref_head, _, ref_tail = task["reference"]
    known.setdefault(ref_head, set()).add(ref_tail)
    for q in task["queries"]:
        known.setdefault(q["head"], set()).add(q["truth"])
    return known


def filtered_candidates(task, query):
    drop = known_tails(task).get(query["head"], set()) - {query["truth"]}
    return [c for c in query["candidates"] if c not in drop]


def pessimistic_rank(scores, truth_index):
    truth = scores[truth_index]
    return 1 + sum(1 for i, s in enumerate(scores) if i != truth_index and s >= truth)


# ---------------------------------------------------------------------------
# dataset


def check_dataset_shape(ds, n_entities, n_relations, n_triples, counts):
    _require(len(ds.entities) == n_entities, "%d entities, expected %d",
             len(ds.entities), n_entities)
    _require(len(ds.relations) == n_relations, "%d relations, expected %d",
             len(ds.relations), n_relations)
    _require(ds.n_triples() == n_triples, "%d triples, expected %d", ds.n_triples(), n_triples)
    sizes = tuple(len(ds.split(b)) for b in ("train", "valid", "test"))
    _require(sizes == tuple(counts), "task split %s, expected %s", sizes, tuple(counts))
    listed = set(ds.split("train") + ds.split("valid") + ds.split("test"))
    _require(listed == set(ds.tasks), "task files %s do not match the manifest %s",
             sorted(ds.tasks), sorted(listed))


def check_candidates(ds):
    """Every candidate set holds the truth, and every candidate shares a type
    with an observed tail of the relation."""
    for rel, task in ds.tasks.items():
        observed = {entity_type(task["reference"][2])}
        observed.update(entity_type(q["truth"]) for q in task["queries"])
        for q in task["queries"]:
            _require(q["truth"] in q["candidates"], "%s: truth %s missing from candidates",
                     rel, q["truth"])
            stray = [c for c in q["candidates"] if entity_type(c) not in observed]
            _require(not stray, "%s: candidates %s share no type with an observed tail",
                     rel, stray[:3])


def check_oracle(ds, oracle, bucket="test"):
    """The beacon oracle ranks every truth of the split first (known tails filtered)."""
    for rel in ds.split(bucket):
        task = ds.tasks[rel]
        for q in task["queries"]:
            cands = filtered_candidates(task, q)
            rank = pessimistic_rank(oracle(task["reference"][2], cands),
                                    cands.index(q["truth"]))
            _require(rank == 1, "%s: oracle ranks truth %s at %d", rel, q["truth"], rank)


# ---------------------------------------------------------------------------
# training log


def check_training_log(path, episodes):
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    losses = [r["loss"] for r in records if "loss" in r]
    _require(len(losses) == episodes, "%d episode records, expected %d", len(losses), episodes)
    bad = [x for x in losses if not (isinstance(x, (int, float)) and math.isfinite(x))]
    _require(not bad, "non-finite episode losses %s", bad[:3])


# ---------------------------------------------------------------------------
# evaluation reports


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_report(report, ds, bucket, shots=1, filter_known=False):
    """Every expected query is ranked exactly once, with its expected
    candidate count and a rank in [1, n_candidates]. With ``shots`` > 1,
    ``shots - 1`` queries of each relation are promoted to references and
    must be absent; which ones is the program's choice."""
    seen = {}
    for row in report["queries"]:
        key = (row["relation"], row["head"], row["truth"])
        _require(key not in seen, "query %s ranked twice", key)
        seen[key] = row
    for rel in ds.split(bucket):
        task = ds.tasks[rel]
        rows = [row for key, row in seen.items() if key[0] == rel]
        promoted = min(shots - 1, max(0, len(task["queries"]) - 1))
        _require(len(rows) == len(task["queries"]) - promoted,
                 "%s: %d queries ranked, expected %d", rel, len(rows),
                 len(task["queries"]) - promoted)
        by_key = {(q["head"], q["truth"]): q for q in task["queries"]}
        for row in rows:
            q = by_key.get((row["head"], row["truth"]))
            _require(q is not None, "%s: ranked query %s is not in the task", rel,
                     (row["head"], row["truth"]))
            n = len(filtered_candidates(task, q) if filter_known else q["candidates"])
            _require(row["n_candidates"] == n, "%s: %d candidates reported, expected %d",
                     rel, row["n_candidates"], n)
            _require(1 <= row["rank"] <= n, "%s: rank %r outside [1, %d]", rel, row["rank"], n)
    extra = set(k[0] for k in seen) - set(ds.split(bucket))
    _require(not extra, "report ranks relations outside the split: %s", sorted(extra))


def recompute_metrics(ranks):
    n = len(ranks)
    return {"mrr": sum(1.0 / r for r in ranks) / n,
            "hits1": sum(r <= 1 for r in ranks) / n,
            "hits5": sum(r <= 5 for r in ranks) / n,
            "hits10": sum(r <= 10 for r in ranks) / n}


def check_metrics(report, tol=1e-9):
    """Overall and per-relation MRR and Hits@{1,5,10} match the per-query ranks."""
    groups = {"overall": [row["rank"] for row in report["queries"]]}
    for row in report["queries"]:
        groups.setdefault(("relation", row["relation"]), []).append(row["rank"])
    for key, ranks in groups.items():
        stated = report["overall"] if key == "overall" else report["per_relation"][key[1]]
        for name, value in recompute_metrics(ranks).items():
            _require(abs(stated[name] - value) <= tol, "%s %s: report says %r, ranks give %r",
                     key, name, stated[name], value)


def check_same_ranks(report, other):
    """Every query of ``other`` has the same rank as in ``report``."""
    ranks = {(r["relation"], r["head"], r["truth"]): r["rank"] for r in report["queries"]}
    _require(other["queries"], "no queries were re-ranked")
    for row in other["queries"]:
        key = (row["relation"], row["head"], row["truth"])
        _require(ranks.get(key) == row["rank"], "%s: rank %r, %r with candidates reversed",
                 key, ranks.get(key), row["rank"])


def random_mrr(report):
    """Expected MRR of a uniformly random ranking of the same candidate sets."""
    rows = report["queries"]
    return sum(sum(1.0 / k for k in range(1, r["n_candidates"] + 1)) / r["n_candidates"]
               for r in rows) / len(rows)


def check_above_random(report, factor):
    base = random_mrr(report)
    mrr = report["overall"]["mrr"]
    _require(mrr >= factor * base, "MRR %.4f is not %g x the random-ranking MRR %.4f",
             mrr, factor, base)
