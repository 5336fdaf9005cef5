"""Dataset builder: split a raw triple dump into background relations and
one-shot task relations, and emit meta-train/validation/test task files.

Layout of an emitted dataset directory:
  entities.txt / relations.txt   vocabulary, one name per line (id = line no.)
  background.txt                 background triples, tab-separated names
  manifest.json                  relation-name lists per bucket + build seed
  tasks/<relation>.json          one file per task relation
"""

from __future__ import annotations

import json
import operator
import os
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, DataError
from .graph_store import (Triple, TypeIndex, Vocab, build_candidates, open_input, padding_pool,
                          save_triples, split_triple_fields)


@dataclass
class TaskSet:
    """One task relation: a single reference triple plus test queries."""
    relation: int
    reference: Triple
    queries: list = field(default_factory=list)   # (head, truth, candidates)

    def all_triples(self):
        triples = [self.reference]
        triples.extend(Triple(h, self.relation, t) for h, t, _ in self.queries)
        return triples


@dataclass
class SplitManifest:
    meta_train: list
    meta_valid: list
    meta_test: list
    background: list
    seed: int

    def task_relations(self):
        return self.meta_train + self.meta_valid + self.meta_test

    def validate(self):
        buckets = [set(self.meta_train), set(self.meta_valid), set(self.meta_test)]
        for i in range(3):
            for j in range(i + 1, 3):
                if buckets[i] & buckets[j]:
                    raise DataError("task split buckets overlap: %s" % (buckets[i] & buckets[j]))
        task = buckets[0] | buckets[1] | buckets[2]
        if task & set(self.background):
            raise DataError("background relations overlap task relations")
        return self


def _coded(triples):
    """``triples`` as an (N, 3) intp array of (head, relation, tail) ids; a
    sequence of :class:`Triple` is accepted too."""
    return np.asarray(triples, dtype=np.intp).reshape(-1, 3)


def select_task_relations(triples, lo=50, hi=500):
    """Relations with strictly more than ``lo`` and strictly fewer than ``hi`` triples."""
    if lo >= hi:
        raise ConfigError("frequency band requires lo < hi")
    counts = np.bincount(_coded(triples)[:, 1])
    # a relation id with no triple here is no task, whatever the band
    tasks = np.flatnonzero((counts > max(lo, 0)) & (counts < hi)).tolist()
    if not tasks:
        raise DataError("no relation has a triple count inside (%d, %d); adjust the band" % (lo, hi))
    return tasks


INVERSE_THRESHOLD = 0.95


def detect_inverse_relations(triples, vocab):
    """Relation ids to drop because another relation mirrors their pairs.

    A pair (r1, r2) is flagged when at least ``INVERSE_THRESHOLD`` of r1's
    distinct (h, t) pairs appear reversed under r2; the lexicographically
    larger name of a flagged pair is dropped. The reversed pairs are found
    by one sorted join of (h, t) keys against (t, h) keys.
    """
    head, rel, tail = _coded(triples).T
    if not rel.size:
        return set()
    base = int(max(head.max(), tail.max())) + 1
    # distinct (relation, pair) rows, the pair (h, t) encoded as h * base + t;
    # the keys fit int64 while relations * base**2 < 2**63
    rel, pair = np.divmod(np.unique(rel * base * base + head * base + tail), base * base)
    by_pair = np.argsort(pair, kind="stable")
    sorted_pairs = pair[by_pair]
    reverse = pair % base * base + pair // base
    lo = np.searchsorted(sorted_pairs, reverse, "left")
    n_match = np.searchsorted(sorted_pairs, reverse, "right") - lo
    # one (r1, r2) entry per row of r1 whose reversed pair r2 holds
    first = np.repeat(lo - np.cumsum(n_match) + n_match, n_match)
    r1 = np.repeat(rel, n_match)
    r2 = rel[by_pair[first + np.arange(first.size)]]
    n_rel = int(rel.max()) + 1
    codes, overlap = np.unique((r1 * n_rel + r2)[r1 != r2], return_counts=True)
    r1, r2 = np.divmod(codes, n_rel)
    flagged = overlap / np.bincount(rel)[r1] >= INVERSE_THRESHOLD
    return {max(a, b, key=lambda r: vocab.id2rel[r])
            for a, b in zip(r1[flagged].tolist(), r2[flagged].tolist())}


def partition_tasks(task_relations, counts, seed=0):
    """Deterministic seeded shuffle, then a split by explicit counts."""
    n_train, n_valid, n_test = counts
    if n_train + n_valid + n_test != len(task_relations):
        raise ConfigError("split counts %s do not sum to %d task relations"
                          % (counts, len(task_relations)))
    order = list(task_relations)
    rng = np.random.default_rng(seed)
    rng.shuffle(order)
    return order[:n_train], order[n_train:n_train + n_valid], order[n_train + n_valid:]


def _task_filename(name):
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name) + ".json"


def _task_json(payload):
    """``json.dumps(payload, indent=1, sort_keys=True)`` for a task file.

    ``payload`` holds a relation name, a reference of three names and a list
    of queries, each a head, a truth and a list of candidate names. With an
    indent ``json`` takes its pure-Python encoder; this lays out the fixed
    schema by hand and escapes each name with the C string encoder. Queries
    that hold the same list object share one encoding of it.
    """
    enc = encode_basestring_ascii

    def names(items, level):
        if not items:
            return "[]"
        pad = "\n" + " " * (level + 1)
        return "[" + ",".join([pad + enc(name) for name in items]) + "\n" + " " * level + "]"

    lists = {id(q["candidates"]): q["candidates"] for q in payload["queries"]}
    encoded = {key: names(items, 3) for key, items in lists.items()}
    queries = [
        '\n  {\n   "candidates": %s,\n   "head": %s,\n   "truth": %s\n  }'
        % (encoded[id(q["candidates"])], enc(q["head"]), enc(q["truth"]))
        for q in payload["queries"]]
    return ('{\n "queries": %s,\n "reference": %s,\n "relation": %s\n}'
            % ("[" + ",".join(queries) + "\n ]" if queries else "[]",
               names(payload["reference"], 1), enc(payload["relation"])))


def emit_dataset(out_dir, triples, vocab, manifest, candidate_floor=20):
    """Write background file, per-task files with candidate sets, and the manifest.

    ``triples`` is an (N, 3) id array. The one-shot reference of each task is
    fixed here, uniformly at random under the manifest seed, so every model
    compares on identical evidence. Every query of a relation shares the
    relation's typed candidate set (its truth is an observed tail, so the set
    holds it); a set below ``candidate_floor`` gets its own padding per query.
    """
    manifest.validate()
    triples = _coded(triples)
    os.makedirs(os.path.join(out_dir, "tasks"), exist_ok=True)

    with open(os.path.join(out_dir, "entities.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(name + "\n" for name in vocab.id2ent))
    with open(os.path.join(out_dir, "relations.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(name + "\n" for name in vocab.id2rel))

    task_relations = sorted(manifest.task_relations())
    is_task = np.isin(triples[:, 1], task_relations)
    save_triples(os.path.join(out_dir, "background.txt"), triples[~is_task], vocab)
    task_triples = triples[is_task]

    rng = np.random.default_rng(manifest.seed)
    index = TypeIndex(vocab)
    names = vocab.id2ent
    for rel in task_relations:
        rel_name = vocab.id2rel[rel]
        heads, _, tails = task_triples[task_triples[:, 1] == rel].T
        if heads.size < 2:
            raise DataError("task relation %s has fewer than 2 triples" % rel_name)
        ref = int(rng.integers(heads.size))
        ref_head, ref_tail = int(heads[ref]), int(tails[ref])
        is_query = (heads != ref_head) | (tails != ref_tail)
        typed = np.array(build_candidates(ref_tail, tails, vocab, floor=0, index=index),
                         dtype=np.intp)
        pool, need = padding_pool(typed, vocab.n_entities, candidate_floor)
        if is_query.any() and typed.size + need < 2:
            raise DataError("task relation %s: candidate sets of fewer than 2 entries"
                            % rel_name)
        shared = None if need else [names[c] for c in typed.tolist()]
        cand_rng = np.random.default_rng(manifest.seed + rel)
        queries = []
        for head, tail in zip(heads[is_query].tolist(), tails[is_query].tolist()):
            candidates = shared
            if candidates is None:
                padded = np.union1d(typed, cand_rng.choice(pool, size=need, replace=False))
                candidates = [names[c] for c in padded.tolist()]
            queries.append({"head": names[head], "truth": names[tail], "candidates": candidates})
        payload = {
            "relation": rel_name,
            "reference": [names[ref_head], rel_name, names[ref_tail]],
            "queries": queries,
        }
        path = os.path.join(out_dir, "tasks", _task_filename(rel_name))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_task_json(payload))

    manifest_payload = {
        "meta_train": [vocab.id2rel[r] for r in manifest.meta_train],
        "meta_valid": [vocab.id2rel[r] for r in manifest.meta_valid],
        "meta_test": [vocab.id2rel[r] for r in manifest.meta_test],
        "background": [vocab.id2rel[r] for r in sorted(manifest.background)],
        "seed": manifest.seed,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest_payload, fh, indent=1, sort_keys=True)


def build_dataset(out_dir, triples, vocab, counts=None, band=(50, 500), seed=0,
                  candidate_floor=20, explicit_split=None):
    """Full pipeline: inverse removal, band selection, split, emit.

    ``triples`` is an (N, 3) id array, as :func:`~oneshot_kgc.graph_store.load_triples`
    returns it. ``explicit_split`` optionally gives three lists of relation
    names instead of a seeded random partition. Returns the manifest (integer
    relation ids).
    """
    triples = _coded(triples)
    drop = detect_inverse_relations(triples, vocab)
    kept = triples[~np.isin(triples[:, 1], sorted(drop))]
    tasks = select_task_relations(kept, lo=band[0], hi=band[1])
    if explicit_split is not None:
        name_lists = explicit_split
        buckets = []
        for names in name_lists:
            ids = []
            for name in names:
                if name not in vocab.rel2id:
                    raise DataError("unknown relation %r in explicit split" % name)
                ids.append(vocab.rel2id[name])
            buckets.append(ids)
        train, valid, test = buckets
        if set(train + valid + test) != set(tasks):
            raise DataError("explicit split does not cover the selected task relations")
    else:
        if counts is None:
            n = len(tasks)
            n_test = max(1, round(n * 11 / 67))
            n_valid = max(1, round(n * 5 / 67))
            counts = (n - n_valid - n_test, n_valid, n_test)
        train, valid, test = partition_tasks(tasks, counts, seed=seed)
    task_set = set(train) | set(valid) | set(test)
    background = sorted(set(np.unique(kept[:, 1]).tolist()) - task_set)
    manifest = SplitManifest(train, valid, test, background, seed)
    emit_dataset(out_dir, kept, vocab, manifest, candidate_floor=candidate_floor)
    return manifest


# ---------------------------------------------------------------------------
# loading an emitted dataset


class Dataset:
    """In-memory view of an emitted dataset directory."""

    def __init__(self, vocab, background, tasks, manifest):
        self.vocab = vocab
        self.background = background        # (N, 3) intp array: head, relation, tail ids
        self.tasks = tasks                  # relation-id -> TaskSet
        self.manifest = manifest

    def tasks_for(self, bucket):
        rel_ids = {"train": self.manifest.meta_train,
                   "valid": self.manifest.meta_valid,
                   "test": self.manifest.meta_test}[bucket]
        return [self.tasks[r] for r in rel_ids]


def _read_names(path):
    """The names of a vocabulary file, one per line, and the name -> id map
    (id = line number - 1); a name on two lines is a :class:`DataError`."""
    with open_input(path) as fh:
        names = fh.read().split("\n")
    if not names[-1]:
        names.pop()         # the text after the final newline
    ids = dict(zip(names, range(len(names))))
    if len(ids) != len(names):
        first = {}
        for lineno, name in enumerate(names, 1):
            if first.setdefault(name, lineno) != lineno:
                raise DataError("%s: line %d: repeats the name on line %d (%r)"
                                % (path, lineno, first[name], name))
    return names, ids


def _read_background(path, vocab):
    """The triples of ``background.txt`` as an (N, 3) intp array of ids.

    :func:`~oneshot_kgc.graph_store.split_triple_fields` splits the text a
    chunk of lines at a time, and each column is mapped through the
    vocabulary. A file that split does not take whole (a line without exactly
    two tabs, a carriage return, no final newline, an unknown name, bytes that
    are not UTF-8) is read again line by line, which accepts what the line
    loop accepts and names the file and line of the first fault.
    """
    chunks = split_triple_fields(path)
    if chunks is None:
        return _read_background_lines(path, vocab)
    blocks = []
    try:
        for fields in chunks:
            block = np.empty((len(fields) // 3, 3), dtype=np.intp)
            for column, ids in enumerate((vocab.ent2id, vocab.rel2id, vocab.ent2id)):
                # one name gives one id, not a tuple; it broadcasts
                block[:, column] = operator.itemgetter(*fields[column::3])(ids)
            blocks.append(block)
    except KeyError:
        return _read_background_lines(path, vocab)
    return np.concatenate(blocks) if blocks else np.empty((0, 3), dtype=np.intp)


def _read_background_lines(path, vocab):
    """:func:`_read_background` one line at a time, for a file with a fault."""
    rows = []
    with open_input(path) as fh:
        for line in fh:
            try:
                h, r, t = line.rstrip("\n").split("\t")
                rows.append((vocab.ent2id[h], vocab.rel2id[r], vocab.ent2id[t]))
            except ValueError:
                raise DataError("%s: line %d: expected 3 tab-separated fields"
                                % (path, len(rows) + 1)) from None
            except KeyError as exc:
                raise DataError("%s: line %d: unknown name %s"
                                % (path, len(rows) + 1, exc)) from None
    return np.array(rows, dtype=np.intp).reshape(-1, 3)


def load_dataset(dataset_dir):
    missing = [name for name in ("entities.txt", "relations.txt", "background.txt",
                                 "manifest.json")
               if not os.path.isfile(os.path.join(dataset_dir, name))]
    if missing:
        raise DataError("%s is not a dataset directory: missing %s"
                        % (dataset_dir, ", ".join(missing)))
    vocab = Vocab()
    vocab.id2ent, vocab.ent2id = _read_names(os.path.join(dataset_dir, "entities.txt"))
    vocab.id2rel, vocab.rel2id = _read_names(os.path.join(dataset_dir, "relations.txt"))
    background = _read_background(os.path.join(dataset_dir, "background.txt"), vocab)

    path = os.path.join(dataset_dir, "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            m = json.load(fh)
        manifest = SplitManifest(
            [vocab.rel2id[n] for n in m["meta_train"]],
            [vocab.rel2id[n] for n in m["meta_valid"]],
            [vocab.rel2id[n] for n in m["meta_test"]],
            [vocab.rel2id[n] for n in m["background"]],
            m["seed"],
        ).validate()
    except ValueError as exc:
        raise DataError("%s: not valid JSON: %s" % (path, exc)) from None
    except KeyError as exc:
        raise DataError("%s: missing field or unknown name %s" % (path, exc)) from None
    except TypeError as exc:
        raise DataError("%s: unexpected layout: %s" % (path, exc)) from None

    tasks = {}
    try:
        for rel in manifest.task_relations():
            path = os.path.join(dataset_dir, "tasks", _task_filename(vocab.id2rel[rel]))
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            ref = Triple(vocab.ent2id[payload["reference"][0]], rel,
                         vocab.ent2id[payload["reference"][2]])
            queries = [(vocab.ent2id[q["head"]], vocab.ent2id[q["truth"]],
                        [vocab.ent2id[c] for c in q["candidates"]])
                       for q in payload["queries"]]
            tasks[rel] = TaskSet(rel, ref, queries)
    except OSError as exc:
        raise DataError("%s: cannot read task file: %s" % (path, exc.strerror)) from None
    except ValueError as exc:
        raise DataError("%s: not valid JSON: %s" % (path, exc)) from None
    except KeyError as exc:
        raise DataError("%s: missing field or unknown name %s" % (path, exc)) from None
    except (IndexError, TypeError) as exc:
        raise DataError("%s: unexpected layout: %s" % (path, exc)) from None
    return Dataset(vocab, background, tasks, manifest)
