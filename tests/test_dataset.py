import hashlib
import json
import os
import shutil
from collections import Counter

import numpy as np
import pytest

import reference
from oneshot_kgc import dataset, synthetic
from oneshot_kgc.dataset import (INVERSE_THRESHOLD, build_dataset,
                                 detect_inverse_relations, load_dataset,
                                 partition_tasks, select_task_relations)
from oneshot_kgc.errors import ConfigError, DataError
from oneshot_kgc.graph_store import Triple, Vocab, load_triples


def make_triples(counts):
    """counts: relation-id -> number of triples (distinct heads/tails)."""
    triples = []
    eid = 0
    for rel, n in counts.items():
        for _ in range(n):
            triples.append(Triple(eid, rel, eid + 1))
            eid += 2
    return triples


class TestBandSelection:
    def test_strict_lower_bound(self):
        triples = make_triples({0: 50, 1: 51})
        assert select_task_relations(triples, 50, 500) == [1]

    def test_strict_upper_bound(self):
        triples = make_triples({0: 500, 1: 499})
        assert select_task_relations(triples, 50, 500) == [1]

    def test_no_qualifying_relation_errors(self):
        triples = make_triples({0: 5})
        with pytest.raises(DataError, match="band"):
            select_task_relations(triples, 50, 500)

    def test_bad_band_errors(self):
        with pytest.raises(ConfigError):
            select_task_relations(make_triples({0: 60}), 500, 50)


class TestPartition:
    def test_sizes(self):
        train, valid, test = partition_tasks(list(range(67)), (51, 5, 11), seed=0)
        assert (len(train), len(valid), len(test)) == (51, 5, 11)

    def test_wiki_scale_sizes(self):
        train, valid, test = partition_tasks(list(range(183)), (133, 16, 34), seed=0)
        assert (len(train), len(valid), len(test)) == (133, 16, 34)

    def test_deterministic(self):
        a = partition_tasks(list(range(30)), (20, 5, 5), seed=4)
        b = partition_tasks(list(range(30)), (20, 5, 5), seed=4)
        assert a == b

    def test_count_mismatch_errors(self):
        with pytest.raises(ConfigError, match="sum"):
            partition_tasks(list(range(10)), (5, 4, 2), seed=0)


class TestInverseDetection:
    def test_detects_mirrored_relation(self):
        v = Vocab()
        ra = v.add_relation("alpha")
        rb = v.add_relation("beta")
        triples = []
        for i in range(20):
            triples.append(Triple(2 * i, ra, 2 * i + 1))
            triples.append(Triple(2 * i + 1, rb, 2 * i))
        drop = detect_inverse_relations(triples, v)
        assert drop == {rb}   # "beta" > "alpha" lexicographically

    def test_unrelated_relations_untouched(self):
        v = Vocab()
        ra = v.add_relation("alpha")
        rb = v.add_relation("beta")
        triples = [Triple(i, ra, i + 100) for i in range(20)]
        triples += [Triple(i + 200, rb, i + 300) for i in range(20)]
        assert detect_inverse_relations(triples, v) == set()


def planted_graph(rng, n_relations=8, n_entities=30):
    """Relations of random pairs, each either independent, symmetric, or a
    mirror of an earlier relation with 0, 1, 2 or 5% of its pairs left out;
    triples repeat and some pairs are self-loops. Relation names are
    shuffled so that name order differs from id order."""
    v = Vocab()
    for name in rng.permutation(["rel%02d" % i for i in range(n_relations)]):
        v.add_relation(str(name))
    pairs = []
    for r in range(n_relations):
        kind = int(rng.integers(3)) if r else 0
        if kind == 2:
            source = sorted(set(pairs[int(rng.integers(r))]))
            missing = int(rng.choice([0, 1, 2, len(source) // 20]))
            rel_pairs = [(t, h) for h, t in source[missing:]]
        else:
            n = int(rng.choice([5, 20, 40, 60, 100]))
            rel_pairs = [tuple(p) for p in rng.integers(n_entities, size=(n, 2)).tolist()]
            if kind == 1:
                rel_pairs += [(t, h) for h, t in rel_pairs]
        pairs.append(rel_pairs)
    triples = [Triple(h, r, t) for r, rel_pairs in enumerate(pairs) for h, t in rel_pairs]
    triples += [triples[int(i)] for i in rng.integers(len(triples), size=len(triples) // 10)]
    return [triples[int(i)] for i in rng.permutation(len(triples))], v


class TestInverseJoinMatchesPairwiseSets:
    """The sorted join flags exactly the relations the pairwise set
    intersections flag."""

    def test_random_planted_graphs(self):
        rng = np.random.default_rng(11)
        flagged = 0
        for _ in range(150):
            triples, v = planted_graph(rng)
            drop = detect_inverse_relations(triples, v)
            assert drop == reference.detect_inverse_relations(triples, v)
            flagged += len(drop)
        assert flagged > 50

    @pytest.mark.parametrize("n_pairs, mirrored, flagged", [
        (20, 19, True), (20, 18, False), (200, 190, True), (200, 189, False),
        (40, 38, True), (60, 56, False)])
    def test_overlap_at_and_below_threshold(self, n_pairs, mirrored, flagged):
        assert (mirrored / n_pairs >= INVERSE_THRESHOLD) == flagged
        v = Vocab()
        ra, rb = v.add_relation("alpha"), v.add_relation("beta")
        triples = [Triple(i, ra, n_pairs + i) for i in range(n_pairs)]
        triples += [Triple(n_pairs + i, rb, i) for i in range(mirrored)]
        triples += [Triple(3 * n_pairs + i, rb, 4 * n_pairs + i) for i in range(n_pairs)]
        triples += triples[:5]                        # repeats count once
        drop = detect_inverse_relations(triples, v)
        assert drop == reference.detect_inverse_relations(triples, v)
        assert drop == ({rb} if flagged else set())

    def test_symmetric_relations_and_self_loops(self):
        v = Vocab()
        ra, rb, rc = v.add_relation("zeta"), v.add_relation("eta"), v.add_relation("theta")
        sym = [(0, 1), (1, 0), (2, 3), (3, 2), (4, 4)]
        triples = [Triple(h, ra, t) for h, t in sym] + [Triple(h, rb, t) for h, t in sym]
        triples += [Triple(4, rc, 4), Triple(5, rc, 6)]
        drop = detect_inverse_relations(triples, v)
        assert drop == reference.detect_inverse_relations(triples, v) == {ra}

    def test_no_triples(self):
        assert detect_inverse_relations([], Vocab()) == set()


def old_build_candidates(truth, observed_tails, vocab, floor=20, rng=None, index=None):
    return reference.build_candidates(truth, observed_tails, vocab, floor, rng)


def dir_hashes(root):
    hashes = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


class TestEmittedDataset:
    def test_conservation(self, ds, dump_path):
        raw, _ = load_triples(dump_path)
        n_tasks = sum(1 + len(t.queries) for t in ds.tasks.values())
        assert len(ds.background) + n_tasks == len(raw)

    def test_every_task_in_exactly_one_bucket(self, ds):
        m = ds.manifest
        seen = Counter(m.meta_train + m.meta_valid + m.meta_test)
        assert all(c == 1 for c in seen.values())
        assert set(seen) == set(ds.tasks)

    def test_no_task_triple_in_background(self, ds):
        background = set(map(tuple, ds.background.tolist()))
        for task in ds.tasks.values():
            for trip in task.all_triples():
                assert trip not in background

    def test_reference_not_in_queries(self, ds):
        for task in ds.tasks.values():
            ref = task.reference
            for head, truth, _ in task.queries:
                assert (head, truth) != (ref.head, ref.tail)

    def test_byte_identical_rebuild(self, tmp_path, dump_path):
        triples, vocab = load_triples(dump_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        build_dataset(out1, triples, vocab, counts=(6, 2, 2), seed=3)
        triples2, vocab2 = load_triples(dump_path)
        build_dataset(out2, triples2, vocab2, counts=(6, 2, 2), seed=3)
        assert dir_hashes(out1) == dir_hashes(out2)

    @pytest.mark.parametrize("floor, unique_types", [(20, False), (30, True)])
    def test_same_bytes_as_entity_scan_and_pairwise_sets(self, tmp_path, dump_path,
                                                         monkeypatch, floor, unique_types):
        # with one type per entity a query's typed candidates are its
        # relation's distinct tails, fewer than 30 here, so every query is padded
        sidecar = None
        if unique_types:
            _, vocab = load_triples(dump_path)
            sidecar = tmp_path / "types.tsv"
            sidecar.write_text("".join("%s\tu%d\n" % (name, i)
                                       for i, name in enumerate(vocab.id2ent)))
        out = {}
        for name in ("old", "new"):
            if name == "old":
                monkeypatch.setattr(dataset, "build_candidates", old_build_candidates)
                monkeypatch.setattr(dataset, "detect_inverse_relations",
                                    reference.detect_inverse_relations)
            triples, vocab = load_triples(dump_path)
            if sidecar is not None:
                vocab.apply_type_sidecar(str(sidecar))
            out[name] = str(tmp_path / name)
            build_dataset(out[name], triples, vocab, counts=(6, 2, 2), seed=3,
                          candidate_floor=floor)
            monkeypatch.undo()
        assert dir_hashes(out["old"]) == dir_hashes(out["new"])
        assert len(dir_hashes(out["new"])) == 14
        if unique_types:
            assert {len(cands) for task in load_dataset(out["new"]).tasks.values()
                    for _, _, cands in task.queries} == {30}

    def test_task_file_schema(self, dataset_dir, ds):
        name = ds.vocab.id2rel[ds.manifest.meta_test[0]]
        with open(os.path.join(dataset_dir, "tasks", name + ".json")) as fh:
            payload = json.load(fh)
        assert set(payload) == {"relation", "reference", "queries"}
        assert len(payload["reference"]) == 3
        q = payload["queries"][0]
        assert set(q) == {"head", "truth", "candidates"}
        assert q["truth"] in q["candidates"]

    def test_explicit_split_mode(self, tmp_path, dump_path):
        triples, vocab = load_triples(dump_path)
        tasks = select_task_relations(triples, 50, 500)
        names = [vocab.id2rel[r] for r in tasks]
        split = (names[:6], names[6:8], names[8:])
        out = str(tmp_path / "explicit")
        manifest = build_dataset(out, triples, vocab, explicit_split=split)
        assert [vocab.id2rel[r] for r in manifest.meta_train] == split[0]
        assert [vocab.id2rel[r] for r in manifest.meta_test] == split[2]

    def test_load_roundtrip_matches_manifest(self, ds, dataset_dir):
        with open(os.path.join(dataset_dir, "manifest.json")) as fh:
            m = json.load(fh)
        assert sorted(m["meta_train"]) == sorted(
            ds.vocab.id2rel[r] for r in ds.manifest.meta_train)
        assert m["seed"] == ds.manifest.seed


def write_dataset(root, rename):
    """A dataset built from the synthetic dump with every entity renamed."""
    dump = str(root / "dump.tsv")
    synthetic.write_dump(dump, [(rename(h), r, rename(t))
                                for h, r, t in synthetic.generate(seed=5)])
    triples, vocab = load_triples(dump)
    out = str(root / "ds")
    build_dataset(out, triples, vocab, counts=(6, 2, 2), seed=3)
    return out


def assert_loads_as_line_loader(path):
    new, old = load_dataset(path), reference.load_dataset(path)
    assert new.vocab.id2ent == old.vocab.id2ent and new.vocab.ent2id == old.vocab.ent2id
    assert new.vocab.id2rel == old.vocab.id2rel and new.vocab.rel2id == old.vocab.rel2id
    assert ([new.vocab.entity_type(e) for e in range(new.vocab.n_entities)]
            == [old.vocab.entity_type(e) for e in range(old.vocab.n_entities)])
    assert new.background.dtype == np.intp and new.background.shape == (len(old.background), 3)
    assert new.background.tolist() == [list(t) for t in old.background]
    assert new.tasks == old.tasks
    assert new.manifest == old.manifest
    return new


def edit_file(path, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(edit(text))


class TestColumnarLoad:
    """The one-pass background parse loads what the line-by-line loader does."""

    def test_synthetic_dataset_on_the_one_pass_path(self, dataset_dir, monkeypatch):
        def refuse(path, vocab):
            raise AssertionError("fell back to the line loop")
        monkeypatch.setattr(dataset, "_read_background_lines", refuse)
        ds = assert_loads_as_line_loader(dataset_dir)
        assert len(ds.background) > 0

    @pytest.mark.parametrize("rename", [
        lambda name: "κόσμος:" + name + ":日本é",
        lambda name: name.replace(":", "_"),
    ], ids=["unicode", "no-colon"])
    def test_renamed_entities(self, tmp_path, rename):
        ds = assert_loads_as_line_loader(write_dataset(tmp_path, rename))
        assert ds.vocab.id2ent[0] == rename(synthetic.generate(seed=5)[0][0])

    @pytest.mark.parametrize("edit", [
        lambda text: "",
        lambda text: text[:-1],
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.splitlines(keepends=True)[0],
        lambda text: text.splitlines(keepends=True)[0].rstrip("\n"),
    ], ids=["empty", "no-final-newline", "crlf", "one-line", "one-line-no-newline"])
    def test_edited_background(self, dataset_dir, tmp_path, edit):
        path = str(tmp_path / "ds")
        shutil.copytree(dataset_dir, path)
        edit_file(os.path.join(path, "background.txt"), edit)
        assert_loads_as_line_loader(path)

    def test_names_without_final_newline(self, dataset_dir, tmp_path):
        path = str(tmp_path / "ds")
        shutil.copytree(dataset_dir, path)
        for name in ("entities.txt", "relations.txt"):
            edit_file(os.path.join(path, name), lambda text: text[:-1])
        assert_loads_as_line_loader(path)

    @pytest.mark.parametrize("line", ["h\tr\tt\t\n", "\t\t\n", "h\tr\r\tt\n"])
    def test_bad_line_raises_what_the_line_loader_raises(self, dataset_dir, tmp_path, line):
        path = str(tmp_path / "ds")
        shutil.copytree(dataset_dir, path)
        edit_file(os.path.join(path, "background.txt"),
                  lambda text: "".join(text.splitlines(keepends=True)[:4] + [line]))
        with pytest.raises(DataError) as want:
            reference.load_dataset(path)
        with pytest.raises(DataError) as got:
            load_dataset(path)
        assert str(got.value) == str(want.value)
        assert "background.txt: line 5:" in str(got.value)


def random_name(rng):
    alphabet = ["a", "Z", "0", ":", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
                "é", "日", "\U0001F600", "\ud800"]
    return "".join(rng.choice(alphabet) for _ in range(rng.integers(0, 8)))


class TestTaskJson:
    def test_same_text_as_json_dumps(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            payload = {
                "relation": random_name(rng),
                "reference": [random_name(rng) for _ in range(3)],
                "queries": [{"head": random_name(rng), "truth": random_name(rng),
                             "candidates": [random_name(rng)
                                            for _ in range(rng.integers(0, 5))]}
                            for _ in range(rng.integers(0, 4))],
            }
            assert dataset._task_json(payload) == json.dumps(payload, indent=1, sort_keys=True)
