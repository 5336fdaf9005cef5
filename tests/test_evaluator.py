import copy
import json

import numpy as np
import pytest

from oneshot_kgc.dataset import TaskSet
from oneshot_kgc.embeddings import random_table
from oneshot_kgc.errors import DataError
from oneshot_kgc.evaluator import (QueryResult, RankingReport, aggregate_kshot,
                                   compute_metrics, evaluate_tasks,
                                   matcher_score_fn, rank_from_scores)
from oneshot_kgc.matcher import Matcher
from reference import graph_from_lists, neighbor_lists, per_query_score_fn


class TestRanking:
    def test_pessimistic_tie_breaking(self):
        # truth ties with one other candidate -> both count -> rank 2
        assert rank_from_scores([0.5, 0.5, 0.1], truth_index=0) == 2

    def test_top_score_ranks_first(self):
        assert rank_from_scores([0.1, 0.9, 0.3], truth_index=1) == 1

    def test_all_tied_ranks_last(self):
        assert rank_from_scores([0.2, 0.2, 0.2, 0.2], truth_index=2) == 4

    def test_rounding_near_tie_counts_against_the_truth(self):
        # scores one rounding step apart (as two batch compositions give) tie
        # pessimistically; a gap well above rounding does not
        truth = 0.7
        below = np.nextafter(truth, 0.0)
        assert rank_from_scores([truth, below, 0.1], truth_index=0) == 2
        assert rank_from_scores([truth, truth - 5e-13, 0.1], truth_index=0) == 2
        assert rank_from_scores([truth, truth - 1e-9, 0.1], truth_index=0) == 1

    def test_matches_brute_force_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            scores = np.round(rng.normal(size=n), 1)   # force occasional ties
            truth = int(rng.integers(n))
            got = rank_from_scores(scores, truth)
            brute = 1 + sum(1 for i, s in enumerate(scores)
                            if i != truth and s >= scores[truth])
            assert got == brute


class TestMetrics:
    def test_mrr_hand_computed(self):
        m = compute_metrics([1, 2, 4])
        assert m["mrr"] == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-9)
        assert m["mrr"] == pytest.approx(0.583333, abs=1e-6)

    def test_hits_boundaries_inclusive(self):
        m = compute_metrics([1, 5, 10, 11])
        assert m["hits1"] == 0.25
        assert m["hits5"] == 0.5
        assert m["hits10"] == 0.75

    def test_empty_rank_list_rejected(self):
        with pytest.raises(DataError):
            compute_metrics([])

    def test_monotone_transform_leaves_ranks_unchanged(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=15)
        for truth in range(15):
            a = rank_from_scores(scores, truth)
            b = rank_from_scores(3.0 * scores + 7.0, truth)
            assert a == b


class TestPerRelation:
    def make_report(self):
        report = RankingReport()
        for rank in (1, 1):
            report.add(QueryResult("relA", "h", "t", rank, 20))
        for rank in (4, 4):
            report.add(QueryResult("relB", "h", "t", rank, 30))
        return report

    def test_micro_average_over_queries(self):
        report = self.make_report()
        per = report.per_relation()
        assert per["relA"]["mrr"] == 1.0
        assert per["relB"]["mrr"] == 0.25
        assert report.metrics()["mrr"] == pytest.approx(0.625)

    def test_json_and_text_render(self):
        report = self.make_report()
        payload = json.loads(report.to_json())
        assert set(payload) == {"overall", "per_relation", "queries"}
        text = report.to_text()
        assert "relA" in text and "overall (micro)" in text


class TestKShot:
    def test_single_vector_identity(self):
        v = [0.3, 0.1, 0.9]
        assert aggregate_kshot([v]).tolist() == v

    def test_elementwise_max(self):
        fused = aggregate_kshot([[0.1, 0.9], [0.4, 0.2]])
        assert fused.tolist() == [0.4, 0.9]

    def test_max_dominates_each_input(self):
        rng = np.random.default_rng(2)
        vecs = [rng.normal(size=12) for _ in range(5)]
        fused = aggregate_kshot(vecs)
        for v in vecs:
            assert np.all(fused >= v)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="length"):
            aggregate_kshot([[0.1, 0.2], [0.3]])


class TestEvaluateTasks:
    def oracle(self, ds):
        from oneshot_kgc.synthetic import oracle_score_fn
        return oracle_score_fn(ds)

    def test_filtered_oracle_is_perfect(self, ds):
        tasks = ds.tasks_for("test")
        report = evaluate_tasks(tasks, self.oracle(ds), ds.vocab, filter_known=True)
        assert report.metrics()["mrr"] == 1.0
        assert report.metrics()["hits1"] == 1.0

    def test_raw_oracle_ties_with_known_true_tails(self, ds):
        # every head has 3 true tails that tie at the top under raw ranking
        tasks = ds.tasks_for("test")
        report = evaluate_tasks(tasks, self.oracle(ds), ds.vocab, filter_known=False)
        assert report.metrics()["mrr"] == pytest.approx(1 / 3, abs=1e-9)
        assert report.metrics()["hits10"] == 1.0

    def test_truth_missing_from_candidates_rejected(self, ds):
        import copy
        task = copy.deepcopy(ds.tasks_for("test")[0])
        head, truth, cands = task.queries[0]
        task.queries[0] = (head, truth, [c for c in cands if c != truth])
        with pytest.raises(DataError, match="truth"):
            evaluate_tasks([task], self.oracle(ds), ds.vocab)

    def test_wrong_number_of_score_vectors_rejected(self, ds):
        task = ds.tasks_for("test")[0]

        def short(task, queries):
            return [np.zeros(len(c)) for _, c in queries[:-1]]
        with pytest.raises(DataError, match="score vectors"):
            evaluate_tasks([task], short, ds.vocab)

    def test_wrong_length_score_vector_rejected(self, ds):
        task = ds.tasks_for("test")[0]

        def truncated(task, queries):
            return [np.zeros(len(c) - 1) for _, c in queries]
        with pytest.raises(DataError, match="candidates"):
            evaluate_tasks([task], truncated, ds.vocab)


class TestMatcherScoreFn:
    """The per-task scorer against per-query ``Matcher.score_pairs``."""

    @pytest.fixture
    def case(self, ds, graph):
        # the first query also ranks its own head and an entity with no
        # background neighbors (it encodes to the zero vector)
        task = copy.deepcopy(ds.tasks_for("test")[0])
        head, truth, cands = task.queries[0]
        known = {t for h, _, t in task.all_triples() if h == head}
        isolated = next(c for c in cands if c not in known | {head})
        task.queries[0] = (head, truth, sorted(set(cands) | {head}))
        lists = neighbor_lists(graph)
        lists[isolated] = []
        matcher = Matcher(8, steps=2, seed=3)
        matcher.attach_table(random_table(ds.vocab.n_entities, ds.vocab.n_relations, 8,
                                          seed=3), trainable=False)
        return task, matcher, graph_from_lists(lists, graph.max_neighbors), head, isolated

    @staticmethod
    def recording(score_fn):
        calls = []

        def wrapped(task, queries):
            out = score_fn(task, queries)
            calls.append((queries, out))
            return out
        return wrapped, calls

    @staticmethod
    def per_query(matcher, graph, refs, head, cands):
        heads = np.full(len(cands), head)
        return aggregate_kshot([matcher.score_pairs(ref, heads, cands, graph).data
                                for ref in refs])

    def check_against_score_pairs(self, matcher, graph, calls, refs):
        for queries, out in calls:
            assert len(out) == len(queries)
            for (head, cands), scores in zip(queries, out):
                want = self.per_query(matcher, graph, refs, head, cands)
                assert np.max(np.abs(scores - want)) <= 1e-12

    def test_one_shot_filtered_matches_score_pairs(self, ds, case):
        task, matcher, graph, head, isolated = case
        score_fn, calls = self.recording(matcher_score_fn(matcher, graph))
        evaluate_tasks([task], score_fn, ds.vocab, filter_known=True)
        (queries, out), = calls
        assert sum(len(c) for _, c in queries) < sum(len(c) for _, _, c in task.queries)
        first = dict(zip(queries[0][1], out[0]))
        assert head in first and isolated in first
        ref = (task.reference.head, task.reference.tail)
        self.check_against_score_pairs(matcher, graph, calls, [ref])

    def test_three_shot_matches_score_pairs(self, ds, case):
        task, matcher, graph, _, _ = case
        refs = [(task.reference.head, task.reference.tail)] + \
            [(h, t) for h, t, _ in task.queries[-2:]]
        trimmed = TaskSet(task.relation, task.reference, task.queries[:-2])
        score_fn, calls = self.recording(
            matcher_score_fn(matcher, graph, references_by_task={task.relation: refs}))
        evaluate_tasks([trimmed], score_fn, ds.vocab)
        self.check_against_score_pairs(matcher, graph, calls, refs)

    def test_queries_sharing_a_head_match_score_pairs(self, case):
        # three queries of one head with different candidate lists, one of
        # them unsorted and holding a duplicate, and one query of another head
        task, matcher, graph, head, isolated = case
        cands = task.queries[0][2]
        other = next(h for h, _, _ in task.queries if h != head)
        queries = [(head, cands), (head, cands[::3]),
                   (head, [cands[5], isolated, cands[1], cands[5]]), (other, cands[1::2])]
        refs = [(task.reference.head, task.reference.tail)] + \
            [(h, t) for h, t, _ in task.queries[-2:]]
        for chosen in (refs[:1], refs):
            out = matcher_score_fn(matcher, graph, {task.relation: chosen})(task, queries)
            self.check_against_score_pairs(matcher, graph, [(queries, out)], chosen)
            assert out[2][0] == out[2][3]
            assert out[2][0] == out[0][5] and out[2][2] == out[0][1]

    def test_one_match_per_distinct_head_and_reference(self, ds, case, monkeypatch):
        _, matcher, graph, _, _ = case
        tasks = ds.tasks_for("test")
        refs = {t.relation: [(t.reference.head, t.reference.tail)] +
                [(h, tail) for h, tail, _ in t.queries[:2]] for t in tasks}
        calls = []
        original = Matcher.match_scores

        def counting(self, *args, **kw):
            calls.append(args[1].shape[0])
            return original(self, *args, **kw)
        monkeypatch.setattr(Matcher, "match_scores", counting)
        for by_task in (None, refs):
            calls.clear()
            evaluate_tasks(tasks, matcher_score_fn(matcher, graph, by_task), ds.vocab,
                           filter_known=True)
            per_ref = 1 if by_task is None else 3
            assert len(calls) == per_ref * sum(len({h for h, _, _ in t.queries})
                                               for t in tasks)
            assert max(calls) <= max(len(c) for t in tasks for _, _, c in t.queries)

    @pytest.mark.parametrize("split", ["test", "valid"])
    def test_unfiltered_scores_equal_the_per_query_loop(self, ds, graph, split):
        matcher = Matcher(8, steps=2, seed=4)
        matcher.attach_table(random_table(ds.vocab.n_entities, ds.vocab.n_relations, 8,
                                          seed=4), trainable=False)
        tasks = ds.tasks_for(split)
        assert any(len({h for h, _, _ in t.queries}) < len(t.queries) for t in tasks)
        refs = {t.relation: [(t.reference.head, t.reference.tail)] +
                [(h, tail) for h, tail, _ in t.queries[-2:]] for t in tasks}
        for by_task in (None, refs):
            for task in tasks:
                queries = [(h, c) for h, _, c in task.queries]
                got = matcher_score_fn(matcher, graph, by_task)(task, queries)
                want = per_query_score_fn(matcher, graph, by_task)(task, queries)
                assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    def test_reversed_candidates_give_same_ranks(self, ds, case):
        task, matcher, graph, _, _ = case
        reversed_task = TaskSet(task.relation, task.reference,
                                [(h, t, c[::-1]) for h, t, c in task.queries])
        score_fn = matcher_score_fn(matcher, graph)
        a = evaluate_tasks([task], score_fn, ds.vocab, filter_known=True)
        b = evaluate_tasks([reversed_task], score_fn, ds.vocab, filter_known=True)
        assert a.ranks == b.ranks
