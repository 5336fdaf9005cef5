from collections import Counter

import numpy as np
import pytest

from oneshot_kgc.errors import DataError, ParseError
from oneshot_kgc.graph_store import (BackgroundGraph, Triple, TypeIndex, Vocab,
                                     build_candidates, build_neighbor_index,
                                     load_triples)
import reference
from reference import (degree, graph_from_lists, listwise_neighbor_index,
                       neighbor_lists)


def write(tmp_path, lines, name="triples.tsv"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


class TestLoadTriples:
    def test_counts(self, tmp_path):
        path = write(tmp_path, ["a\tr1\tb", "b\tr1\tc"])
        triples, vocab = load_triples(path)
        assert len(triples) == 2
        assert vocab.n_entities == 3
        assert vocab.n_relations == 1

    def test_first_appearance_order(self, tmp_path):
        path = write(tmp_path, ["x\tr\ty", "y\ts\tx"])
        _, vocab = load_triples(path)
        assert vocab.id2ent == ["x", "y"]
        assert vocab.id2rel == ["r", "s"]

    def test_malformed_line_names_line_number(self, tmp_path):
        path = write(tmp_path, ["a\tr1\tb", "a\tr1"])
        with pytest.raises(ParseError, match="line 2"):
            load_triples(path)

    def test_empty_file_errors(self, tmp_path):
        path = write(tmp_path, [])
        with pytest.raises(ParseError, match="no triples"):
            load_triples(path)


class TestTypeTags:
    def test_second_segment(self):
        v = Vocab()
        eid = v.add_entity("concept:sport:tennis")
        assert v.entity_type(eid) == "sport"

    def test_no_colon_uses_full_name(self):
        v = Vocab()
        eid = v.add_entity("plainname")
        assert v.entity_type(eid) == "plainname"

    def test_sidecar_overrides(self, tmp_path):
        v = Vocab()
        eid = v.add_entity("concept:sport:tennis")
        sidecar = tmp_path / "types.tsv"
        sidecar.write_text("concept:sport:tennis\tgame\n")
        v.apply_type_sidecar(str(sidecar))
        assert v.entity_type(eid) == "game"

    def test_sidecar_wrong_arity(self, tmp_path):
        v = Vocab()
        sidecar = tmp_path / "types.tsv"
        sidecar.write_text("onlyonecolumn\n")
        with pytest.raises(ParseError, match="line 1"):
            v.apply_type_sidecar(str(sidecar))


class TestNeighborIndex:
    def test_under_cap_keeps_all(self):
        triples = [Triple(0, 0, i) for i in range(1, 4)]
        g = build_neighbor_index(triples, 5, max_neighbors=50)
        assert degree(g, 0) == 3

    def test_over_cap_samples_subset(self):
        triples = [Triple(0, 0, i) for i in range(1, 81)]
        g = build_neighbor_index(triples, 81, max_neighbors=50)
        assert degree(g, 0) == 50
        assert set(neighbor_lists(g)[0]) <= {(0, i) for i in range(1, 81)}

    def test_deterministic(self):
        triples = [Triple(0, 0, i) for i in range(1, 200)]
        a = build_neighbor_index(triples, 200, max_neighbors=50)
        b = build_neighbor_index(triples, 200, max_neighbors=50)
        assert neighbor_lists(a) == neighbor_lists(b)

    def test_isolated_entities_legal(self):
        g = build_neighbor_index([Triple(0, 0, 1)], 4, max_neighbors=50)
        assert neighbor_lists(g)[2] == []
        assert neighbor_lists(g)[3] == []

    def test_degree_histogram_matches_brute_force(self, ds, graph):
        brute = Counter()
        capped = Counter(Counter(ds.background[:, 0].tolist()))
        for eid in range(ds.vocab.n_entities):
            brute[min(capped.get(eid, 0), graph.max_neighbors)] += 1
        assert Counter(degree(graph, e) for e in range(graph.n_entities)) == brute

    def test_background_graph_has_no_task_relations(self, ds, graph):
        task_rels = set(ds.manifest.task_relations())
        assert task_rels.isdisjoint(graph.rel.tolist())

    def test_csr_arrays_consistent(self):
        g = graph_from_lists([[(0, 1), (1, 2)], []], cap=3)
        assert g.indptr.tolist() == [0, 2, 2]
        assert g.rel.tolist() == [0, 1]
        assert g.ent.tolist() == [1, 2]
        assert g.n_entities == 2

    def test_lists_keep_input_order(self):
        triples = [Triple(2, 0, 5), Triple(0, 1, 3), Triple(2, 1, 4), Triple(0, 0, 1)]
        g = build_neighbor_index(triples, 6, max_neighbors=50)
        assert neighbor_lists(g)[:3] == [[(1, 3), (0, 1)], [], [(0, 5), (1, 4)]]

    def test_matches_listwise_build_with_downsampling(self):
        # the capped neighbor sets come from the same rng.choice calls, in the
        # same entity order, as a build that caps one list at a time
        rng = np.random.default_rng(8)
        n_ent = 60
        for cap in (1, 3, 7, 50):
            triples = [Triple(int(h), int(rng.integers(5)), int(rng.integers(n_ent)))
                       for h in rng.integers(n_ent, size=400)]
            got = neighbor_lists(build_neighbor_index(triples, n_ent, cap))
            assert got == listwise_neighbor_index(triples, n_ent, cap)

    def test_over_cap_list_rejected(self):
        with pytest.raises(DataError, match="cap"):
            BackgroundGraph([0, 2], [0, 1], [1, 2], 1)


class TestCandidates:
    def make_vocab(self, names):
        v = Vocab()
        for n in names:
            v.add_entity(n)
        return v

    def test_type_matching(self):
        names = ["concept:sport:%d" % i for i in range(25)] + \
                ["concept:city:%d" % i for i in range(10)]
        v = self.make_vocab(names)
        cands = build_candidates(0, {1, 2}, v)
        assert cands == list(range(25))

    def test_truth_always_included(self):
        names = ["concept:sport:%d" % i for i in range(25)] + ["concept:city:x"]
        v = self.make_vocab(names)
        cands = build_candidates(25, {0}, v)
        assert 25 in cands
        assert len(cands) == 26

    def test_degenerate_typing_yields_all_entities(self):
        names = ["concept:same:%d" % i for i in range(30)]
        v = self.make_vocab(names)
        assert build_candidates(0, {5}, v) == list(range(30))

    def test_floor_padding_is_seeded(self):
        names = ["concept:rare:a", "concept:rare:b"] + \
                ["concept:other:%d" % i for i in range(80)]
        v = self.make_vocab(names)
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        c1 = build_candidates(0, {1}, v, floor=20, rng=rng1)
        c2 = build_candidates(0, {1}, v, floor=20, rng=rng2)
        assert c1 == c2
        assert len(c1) == 20
        assert 0 in c1 and 1 in c1

    def test_truth_in_candidates_for_every_emitted_query(self, ds):
        for task in ds.tasks.values():
            for _, truth, cands in task.queries:
                assert truth in cands
                assert len(cands) >= 2
                assert cands == sorted(cands)


class TestCandidatesMatchEntityScan:
    """The type index returns exactly what one scan over every entity per
    query returns, padding draws included."""

    def random_vocab(self, rng, tmp_path, n_entities):
        v = Vocab()
        for i in range(n_entities):
            v.add_entity("concept:t%d:e%d" % (rng.integers(12), i))
        sidecar = tmp_path / "types.tsv"
        overridden = rng.choice(n_entities, size=n_entities // 4, replace=False)
        sidecar.write_text("".join("%s\tside%d\n" % (v.id2ent[e], rng.integers(4))
                                   for e in overridden))
        v.apply_type_sidecar(str(sidecar))
        return v

    def test_random_queries_sharing_one_stream(self, tmp_path):
        rng = np.random.default_rng(17)
        for trial in range(40):
            v = self.random_vocab(rng, tmp_path, int(rng.integers(2, 120)))
            index = TypeIndex(v)
            floor = int(rng.integers(1, 60))
            tails = set(rng.choice(v.n_entities, size=int(rng.integers(1, 6))).tolist())
            new_rng, old_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            for truth in rng.integers(v.n_entities, size=5).tolist():
                got = build_candidates(truth, tails, v, floor=floor, rng=new_rng, index=index)
                assert got == reference.build_candidates(truth, tails, v, floor, old_rng)
            assert new_rng.random() == old_rng.random()

    def test_index_built_per_call_matches(self, tmp_path):
        rng = np.random.default_rng(3)
        v = self.random_vocab(rng, tmp_path, 60)
        for truth in range(0, 60, 7):
            tails = {truth, (truth * 5) % 60}
            assert build_candidates(truth, tails, v, floor=25) == \
                reference.build_candidates(truth, tails, v, 25)

    def test_sidecar_applied_after_loading(self, tmp_path):
        path = write(tmp_path, ["concept:a:x\tr\tconcept:b:y", "concept:a:z\tr\tconcept:b:w"])
        _, v = load_triples(path)
        sidecar = tmp_path / "types.tsv"
        sidecar.write_text("concept:a:x\tb\n")
        v.apply_type_sidecar(str(sidecar))
        got = build_candidates(1, {1}, v, floor=1, index=TypeIndex(v))
        assert got == reference.build_candidates(1, {1}, v, 1) == [0, 1, 3]

    def test_truth_of_a_type_no_observed_tail_has(self):
        v = Vocab()
        for name in ["concept:sport:%d" % i for i in range(25)] + ["concept:lone:x"]:
            v.add_entity(name)
        got = build_candidates(25, {0, 3}, v, floor=20, index=TypeIndex(v))
        assert got == reference.build_candidates(25, {0, 3}, v, 20) == list(range(26))
