"""Ranking evaluation: candidate ranking per query, MRR / Hits@K aggregates,
per-relation decomposition and k-shot score fusion.

Ranks use pessimistic tie-breaking: candidates scoring equal to the truth
count against it. Scores within an absolute ``RANK_TIE_TOL`` (1e-12) of the
truth's score count as equal: model scores are cosines in [-1, 1], and two
candidates whose scores differ only by rounding (about 1e-16, depending on
how a batch was composed) must not fall on either side of the truth by
chance. Hits@K boundaries are inclusive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import DataError

RANK_TIE_TOL = 1e-12


@dataclass
class QueryResult:
    relation: str
    head: str
    truth: str
    rank: int
    n_candidates: int


@dataclass
class RankingReport:
    results: list = field(default_factory=list)

    def add(self, result):
        self.results.append(result)

    @property
    def ranks(self):
        return [r.rank for r in self.results]

    def metrics(self):
        return compute_metrics(self.ranks)

    def per_relation(self):
        by_rel = {}
        for r in self.results:
            by_rel.setdefault(r.relation, []).append(r)
        out = {}
        for rel, rows in sorted(by_rel.items()):
            m = compute_metrics([r.rank for r in rows])
            m["n_queries"] = len(rows)
            m["n_candidates"] = max(r.n_candidates for r in rows)
            out[rel] = m
        return out

    def to_json(self):
        return json.dumps({
            "overall": self.metrics(),
            "per_relation": self.per_relation(),
            "queries": [vars(r) for r in self.results],
        }, indent=1, sort_keys=True)

    def to_text(self):
        header = "%-42s %12s %8s %8s %8s %8s" % (
            "Relation", "# Candidates", "MRR", "Hits@10", "Hits@5", "Hits@1")
        lines = [header, "-" * len(header)]
        for rel, m in self.per_relation().items():
            lines.append("%-42s %12d %8.3f %8.3f %8.3f %8.3f" % (
                rel, m["n_candidates"], m["mrr"], m["hits10"], m["hits5"], m["hits1"]))
        m = self.metrics()
        lines.append("-" * len(header))
        lines.append("%-42s %12s %8.3f %8.3f %8.3f %8.3f" % (
            "overall (micro)", "", m["mrr"], m["hits10"], m["hits5"], m["hits1"]))
        return "\n".join(lines)


def rank_from_scores(scores, truth_index):
    """Pessimistic rank of the truth inside a score vector (1-based)."""
    scores = np.asarray(scores, dtype=np.float64)
    s_true = scores[truth_index]
    others = np.delete(scores, truth_index)
    return 1 + int(np.sum(others >= s_true - RANK_TIE_TOL))


def compute_metrics(ranks):
    """Micro-averaged MRR and inclusive Hits@{1,5,10}."""
    if len(ranks) == 0:
        raise DataError("cannot compute metrics over zero queries")
    ranks = np.asarray(ranks, dtype=np.float64)
    return {
        "mrr": float(np.mean(1.0 / ranks)),
        "hits1": float(np.mean(ranks <= 1)),
        "hits5": float(np.mean(ranks <= 5)),
        "hits10": float(np.mean(ranks <= 10)),
    }


def aggregate_kshot(score_vectors):
    """Fuse per-reference candidate scores by elementwise maximum."""
    if not score_vectors:
        raise DataError("need at least one reference score vector")
    first = np.asarray(score_vectors[0], dtype=np.float64)
    fused = first.copy()
    for vec in score_vectors[1:]:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != first.shape:
            raise DataError("k-shot score vectors differ in length: %s vs %s"
                            % (vec.shape, first.shape))
        np.maximum(fused, vec, out=fused)
    return fused


def evaluate_tasks(tasks, score_fn, vocab, filter_known=False):
    """Rank every query of every task with ``score_fn`` and build a report.

    ``score_fn(task, queries) -> list of score arrays`` is called once per
    task with the task's ``(head, candidates)`` list and must return one score
    vector per query, one score per candidate (k-shot fusion happens inside
    the score function). With ``filter_known``, candidates that are true tails
    of the same (head, relation) in the task's triple set, other than the
    query's own truth, are removed before scoring.
    """
    report = RankingReport()
    for task in tasks:
        known = {}
        if filter_known:
            for h, r, t in task.all_triples():
                known.setdefault(h, set()).add(t)
        queries = []
        for head, truth, candidates in task.queries:
            if truth not in candidates:
                raise DataError("truth entity missing from its candidate set")
            cands = candidates
            if filter_known:
                drop = known.get(head, set()) - {truth}
                cands = [c for c in candidates if c not in drop]
            queries.append((head, cands))
        score_vectors = score_fn(task, queries)
        rel_name = vocab.id2rel[task.relation]
        if len(score_vectors) != len(queries):
            raise DataError("scorer returned %d score vectors for the %d queries of %s"
                            % (len(score_vectors), len(queries), rel_name))
        for (head, truth, _), (_, cands), scores in zip(task.queries, queries, score_vectors):
            scores = np.asarray(scores, dtype=np.float64)
            if scores.shape != (len(cands),):
                raise DataError("scorer returned %s scores for %d candidates of %s"
                                % (scores.shape, len(cands), rel_name))
            rank = rank_from_scores(scores, cands.index(truth))
            report.add(QueryResult(rel_name, vocab.id2ent[head],
                                   vocab.id2ent[truth], rank, len(cands)))
    return report


def matcher_score_fn(matcher, graph, references_by_task=None):
    """Score candidates with the matching model under the one-shot reference.

    ``references_by_task`` maps relation-id -> list of (head, tail) reference
    pairs for k-shot evaluation; by default each task's own single frozen
    reference is used. Each task's distinct entities (query heads, candidates
    and references) are encoded in one call, in ascending id order, so the
    scores do not depend on candidate order, and are projected once into
    their gate inputs as a query head and as a query tail; each query is then
    matched against each reference and the per-reference scores are fused.
    """
    def score_fn(task, queries):
        refs = (references_by_task or {}).get(
            task.relation, [(task.reference.head, task.reference.tail)])
        ids = np.unique(np.concatenate(
            [np.ravel(refs), [h for h, _ in queries]] + [c for _, c in queries]
        ).astype(np.intp))
        with ad.no_grad():
            enc = matcher.encode_entities(ids, graph).data
            head_gates, tail_gates = matcher.entity_gates(enc)

            def rows(entities):
                return np.searchsorted(ids, entities)

            supports = [ad.Tensor(np.concatenate([enc[rows(h)], enc[rows(t)]]))
                        for h, t in refs]
            out = []
            for head, cands in queries:
                hi, ci = rows(head), rows(cands)
                tails = enc[ci]
                pairs = ad.Tensor(np.hstack([np.broadcast_to(enc[hi], tails.shape), tails]))
                gates = ad.Tensor(head_gates[hi] + tail_gates[ci])
                out.append(aggregate_kshot([matcher.match_scores(s, pairs, gates)[0].data
                                            for s in supports]))
        return out
    return score_fn


def embedding_score_fn(table):
    """Score candidates directly with a baseline embedding model."""
    from .embeddings import score_candidates

    def score_fn(task, queries):
        return [score_candidates(table, head, task.relation, cands) for head, cands in queries]
    return score_fn
