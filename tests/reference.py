"""Reference implementations and helpers that only the tests use.

``step_transe`` is one plain whole-batch TransE minibatch step, as it was
before the flat chunked scatter, the blocked renormalisation, the shared
h + r rows, the step's row blocks and the folded head and relation updates;
the program must give the same tables up to rounding. ``sample_episode`` is
the episode sampler as it was before the per-head skip tables: it filters
the candidate pool with ``np.isin`` once per positive. The program must give
exactly the same episodes.

``build_candidates`` and ``detect_inverse_relations`` are the dataset
builder's functions as they were before the type index and the sorted join:
one scan over every entity per query, and one set intersection per pair of
relations. The tests check that the program returns exactly what they do.

``load_triples`` and ``build_dataset`` are the dump parser and the dataset
builder as they were before the columnar build: one line at a time into a
list of :class:`Triple`, then one candidate set and one JSON encoding per
query. The program must assign the same ids, raise the same errors and write
the same bytes.

``load_dataset`` is the dataset loader as it was before the columnar
background: one ``add_entity`` call per vocabulary line and one
:class:`Triple` per background line. The program must load the same ids,
vocabulary and tasks, and raise the same errors.

The padded neighbor encoder and the unfactored matching processor are the
straightforward forms of the model: the padded encoder applies the affine
map to every neighbor slot up to the cap before it pools, and the unfactored
processor feeds [state; reference] through one matrix per gate at every
step. The program computes the same functions in fewer operations; the
tests compare the two within a tolerance fixed from float64 rounding.
"""

import errno
import json
import os
from collections import Counter, defaultdict

import numpy as np

from oneshot_kgc import autodiff as ad
from oneshot_kgc.dataset import (INVERSE_THRESHOLD, Dataset, SplitManifest, TaskSet,
                                 _task_filename, partition_tasks)
from oneshot_kgc.errors import DataError, ParseError
from oneshot_kgc.evaluator import aggregate_kshot
from oneshot_kgc.graph_store import BackgroundGraph, Triple, Vocab, open_input
from oneshot_kgc.meta_trainer import Episode

GATES = "ifgo"           # column blocks of the fused LSTM parameters


# ---------------------------------------------------------------------------
# background graphs


def graph_from_lists(lists, cap=50):
    """A CSR graph from per-entity lists of (relation, entity) pairs."""
    flat = [pair for lst in lists for pair in lst]
    indptr = np.concatenate([[0], np.cumsum([len(lst) for lst in lists])])
    rel = np.array([r for r, _ in flat], dtype=np.intp)
    ent = np.array([e for _, e in flat], dtype=np.intp)
    return BackgroundGraph(indptr, rel, ent, cap)


def neighbor_lists(graph):
    """Per-entity lists of (relation, entity) pairs, in stored order."""
    return [[(int(graph.rel[k]), int(graph.ent[k]))
             for k in range(graph.indptr[e], graph.indptr[e + 1])]
            for e in range(graph.n_entities)]


def degree(graph, eid):
    return int(graph.indptr[eid + 1] - graph.indptr[eid])


def listwise_neighbor_index(triples, n_entities, max_neighbors):
    """Neighbor lists built one entity at a time, downsampling each over-cap
    list with one ``rng.choice`` call in ascending entity order, from the
    stream of seed 0."""
    full = [[] for _ in range(n_entities)]
    for h, r, t in triples:
        full[h].append((r, t))
    rng = np.random.default_rng(0)
    out = []
    for lst in full:
        if len(lst) > max_neighbors:
            picked = rng.choice(len(lst), size=max_neighbors, replace=False)
            lst = [lst[i] for i in sorted(picked)]
        out.append(lst)
    return out


# ---------------------------------------------------------------------------
# dataset builder


def build_candidates(truth, observed_tails, vocab, floor=20, rng=None):
    """Type-constrained candidate set for a query, always containing the truth.

    Candidates are all entities whose type tag matches the type of any
    observed tail of the relation, union the truth, in ascending entity id.
    When type matching yields fewer than ``floor`` candidates, seeded uniform
    distractors pad the set up to the floor.
    """
    tail_types = {vocab.entity_type(t) for t in observed_tails}
    cands = {eid for eid in range(vocab.n_entities) if vocab.entity_type(eid) in tail_types}
    cands.add(truth)
    if len(cands) < floor:
        if rng is None:
            rng = np.random.default_rng(0)
        pool = np.array([e for e in range(vocab.n_entities) if e not in cands], dtype=np.intp)
        need = min(floor - len(cands), pool.size)
        if need > 0:
            cands.update(int(e) for e in rng.choice(pool, size=need, replace=False))
    if len(cands) < 2:
        raise DataError("candidate set for truth %d has fewer than 2 entries" % truth)
    return sorted(cands)


def detect_inverse_relations(triples, vocab):
    """Relation ids to drop because another relation mirrors their pairs.

    A pair (r1, r2) is flagged when at least ``INVERSE_THRESHOLD`` of r1's
    (h, t) pairs appear reversed under r2; the lexicographically larger name
    of a flagged pair is dropped.
    """
    pairs = defaultdict(set)
    for h, r, t in triples:
        pairs[r].add((h, t))
    reversed_pairs = {r: {(t, h) for h, t in p} for r, p in pairs.items()}
    drop = set()
    rels = sorted(pairs)
    for r1 in rels:
        for r2 in rels:
            if r1 == r2:
                continue
            overlap = len(pairs[r1] & reversed_pairs[r2])
            if overlap / len(pairs[r1]) >= INVERSE_THRESHOLD:
                drop.add(max(r1, r2, key=lambda r: vocab.id2rel[r]))
    return drop


def load_triples(path):
    """(list of :class:`Triple`, vocab) of a tab-separated dump, ids in
    first-appearance order; blank lines are skipped."""
    vocab = Vocab()
    triples = []
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError("%s: line %d: expected 3 tab-separated fields, got %d"
                                 % (path, lineno, len(parts)))
            h, r, t = parts
            triples.append(Triple(vocab.add_entity(h), vocab.add_relation(r), vocab.add_entity(t)))
    if not triples:
        raise ParseError("%s: no triples found" % path)
    return triples, vocab


def build_dataset(out_dir, triples, vocab, counts, band=(50, 500), seed=0, candidate_floor=20):
    """Inverse removal, band selection, a seeded split and the emitted files,
    with one :func:`build_candidates` call and one ``json.dumps`` per query."""
    drop = detect_inverse_relations(triples, vocab)
    kept = [t for t in triples if t.relation not in drop]
    relation_counts = Counter(t.relation for t in kept)
    tasks = sorted(r for r, c in relation_counts.items() if band[0] < c < band[1])
    train, valid, test = partition_tasks(tasks, counts, seed=seed)
    task_set = set(tasks)
    manifest = SplitManifest(train, valid, test, sorted(set(relation_counts) - task_set), seed)

    os.makedirs(os.path.join(out_dir, "tasks"), exist_ok=True)
    with open(os.path.join(out_dir, "entities.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(name + "\n" for name in vocab.id2ent)
    with open(os.path.join(out_dir, "relations.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(name + "\n" for name in vocab.id2rel)
    with open(os.path.join(out_dir, "background.txt"), "w", encoding="utf-8") as fh:
        for h, r, t in kept:
            if r not in task_set:
                fh.write("%s\t%s\t%s\n" % (vocab.id2ent[h], vocab.id2rel[r], vocab.id2ent[t]))

    by_relation = defaultdict(list)
    for t in kept:
        if t.relation in task_set:
            by_relation[t.relation].append(t)
    rng = np.random.default_rng(seed)
    for rel in sorted(task_set):
        rel_triples = by_relation[rel]
        observed_tails = {t.tail for t in rel_triples}
        ref = rel_triples[int(rng.integers(len(rel_triples)))]
        cand_rng = np.random.default_rng(seed + rel)
        queries = []
        for trip in rel_triples:
            if trip == ref:
                continue
            cands = build_candidates(trip.tail, observed_tails, vocab, candidate_floor, cand_rng)
            queries.append({"head": vocab.id2ent[trip.head], "truth": vocab.id2ent[trip.tail],
                            "candidates": [vocab.id2ent[c] for c in cands]})
        payload = {"relation": vocab.id2rel[rel],
                   "reference": [vocab.id2ent[ref.head], vocab.id2rel[rel],
                                 vocab.id2ent[ref.tail]],
                   "queries": queries}
        with open(os.path.join(out_dir, "tasks", _task_filename(vocab.id2rel[rel])), "w",
                  encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)

    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"meta_train": [vocab.id2rel[r] for r in train],
                   "meta_valid": [vocab.id2rel[r] for r in valid],
                   "meta_test": [vocab.id2rel[r] for r in test],
                   "background": [vocab.id2rel[r] for r in manifest.background],
                   "seed": seed}, fh, indent=1, sort_keys=True)


def load_dataset(dataset_dir):
    """An emitted dataset directory, its background a list of :class:`Triple`."""
    missing = [name for name in ("entities.txt", "relations.txt", "background.txt",
                                 "manifest.json")
               if not os.path.isfile(os.path.join(dataset_dir, name))]
    if missing:
        raise DataError("%s is not a dataset directory: missing %s"
                        % (dataset_dir, ", ".join(missing)))
    vocab = Vocab()
    with open_input(os.path.join(dataset_dir, "entities.txt")) as fh:
        for line in fh:
            vocab.add_entity(line.rstrip("\n"))
    with open_input(os.path.join(dataset_dir, "relations.txt")) as fh:
        for line in fh:
            vocab.add_relation(line.rstrip("\n"))

    background = []
    path = os.path.join(dataset_dir, "background.txt")
    with open_input(path) as fh:
        for line in fh:
            try:
                h, r, t = line.rstrip("\n").split("\t")
                background.append(Triple(vocab.ent2id[h], vocab.rel2id[r], vocab.ent2id[t]))
            except ValueError:
                raise DataError("%s: line %d: expected 3 tab-separated fields"
                                % (path, len(background) + 1)) from None
            except KeyError as exc:
                raise DataError("%s: line %d: unknown name %s"
                                % (path, len(background) + 1, exc)) from None

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


def save_checkpoint_bytes(path, arrays):
    """The array section :func:`oneshot_kgc.autodiff.save_checkpoint` writes,
    made with ``tobytes`` one array at a time."""
    with open(path, "wb") as fh:
        for name in sorted(arrays):
            fh.write(np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float64)).tobytes())


# the first line of a checkpoint file: the magic and the header's length in bytes
CHECKPOINT_MAGIC = b"oneshot-kgc-checkpoint %010d\n"


def split_checkpoint(path):
    """(header, array section) of the checkpoint file at ``path``: the JSON
    header whose length the magic line gives, and the bytes after it."""
    with open(path, "rb") as fh:
        data = fh.read()
    line = len(CHECKPOINT_MAGIC % 0)
    end = line + int(data[line - 11:line - 1])        # the 10 digits before the newline
    return json.loads(data[line:end]), data[end:]


def rewrite_header(path, edit):
    """Rewrite the header of the checkpoint file at ``path`` after ``edit``
    has changed it in place, padded with spaces to an 8-byte boundary, and
    keep its array section's bytes."""
    header, arrays = split_checkpoint(path)
    edit(header)
    text = json.dumps(header, indent=2, sort_keys=True).encode()
    text += b" " * (-(len(CHECKPOINT_MAGIC % 0) + len(text)) % 8)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC % len(text) + text + arrays)


class FullDisk:
    """A file open for writing that takes ``room`` more bytes, then fails as
    a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, data):
        size = memoryview(data).nbytes
        if size > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= size
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def fill_disk(monkeypatch, path, room):
    """Make the checkpoint writer's file ``path`` a :class:`FullDisk` with
    ``room`` bytes; every other file opens as usual."""
    def open_file(name, mode="r", *args, **kwargs):
        fh = open(name, mode, *args, **kwargs)
        return FullDisk(fh, room) if name == path else fh

    monkeypatch.setattr(ad, "open", open_file, raising=False)


# ---------------------------------------------------------------------------
# embeddings


def step_transe(table, pos, neg, k, lr, margin):
    E, R = table.ent, table.rel
    dp_vec = E[pos[:, 0]] + R[pos[:, 1]] - E[pos[:, 2]]
    dn_vec = E[neg[:, 0]] + R[neg[:, 1]] - E[neg[:, 2]]
    dp = np.linalg.norm(dp_vec, axis=1)
    dn = np.linalg.norm(dn_vec, axis=1)
    viol = margin + np.repeat(dp, k) - dn
    active = viol > 0
    loss = viol[active].sum()
    if loss > 0:
        up = dp_vec / np.maximum(dp, 1e-12)[:, None]
        un = dn_vec / np.maximum(dn, 1e-12)[:, None]
        wp = np.bincount(np.arange(pos.shape[0]).repeat(k)[active],
                         minlength=pos.shape[0]).astype(float)
        gp = up * wp[:, None] * lr
        gn = un[active] * lr
        np.add.at(E, pos[:, 0], -gp)
        np.add.at(E, pos[:, 2], gp)
        np.add.at(R, pos[:, 1], -gp)
        np.add.at(E, neg[active, 0], gn)
        np.add.at(E, neg[active, 2], -gn)
        np.add.at(R, neg[active, 1], gn)
        E /= np.maximum(np.linalg.norm(E, axis=1, keepdims=True), 1e-12)
    return loss


# ---------------------------------------------------------------------------
# meta-training


def sample_episode(entry, batch_size, rng):
    triples = entry.triples
    if len(triples) < 2:
        return None
    ref_idx = int(rng.integers(len(triples)))
    reference = triples[ref_idx]
    rest = [t for i, t in enumerate(triples) if i != ref_idx]
    take = min(batch_size, len(rest))
    picked = rng.choice(len(rest), size=take, replace=False)
    positives = [(rest[i].head, rest[i].tail) for i in picked]
    negatives = []
    for head, _ in positives:
        banned = entry.true_tails.get(head, set())
        pool = entry.candidate_pool[~np.isin(entry.candidate_pool,
                                             np.fromiter(banned, dtype=np.intp))]
        if pool.size == 0:
            pool = np.array([e for e in range(int(entry.candidate_pool.max()) + 1)
                             if e not in banned], dtype=np.intp)
        negatives.append((head, int(pool[int(rng.integers(pool.size))])))
    return Episode(entry.relation, reference, positives, negatives)


# ---------------------------------------------------------------------------
# model


def encode_one(matcher, entity, graph):
    """The encoding of a single entity as a 1-D d-vector."""
    return matcher.encode_entities([entity], graph).data[0]


def padded_encode(matcher, entity_ids, graph, rng=None):
    """The neighbor encoder over cap-long padded neighbor slots -> (B, d).

    Every slot of every entity is gathered (padding as zero rows); when
    ``rng`` is given, the real neighbor rows are dropped out with one mask
    row each, drawn in batch order. The slots are mapped through the affine
    transform and masked; each block of ``cap`` slots is then averaged over
    its real neighbors (summed without the scaling factor) and squashed by
    tanh.
    """
    cap = graph.max_neighbors
    lists = neighbor_lists(graph)
    ids = np.asarray(entity_ids, dtype=np.intp)
    rel = np.full((ids.size, cap), -1, dtype=np.intp)
    ent = np.full((ids.size, cap), -1, dtype=np.intp)
    counts = np.zeros(ids.size)
    for b, eid in enumerate(ids):
        counts[b] = len(lists[eid])
        for j, (r, e) in enumerate(lists[eid]):
            rel[b, j], ent[b, j] = r, e
    r_flat, e_flat = rel.ravel(), ent.ravel()
    rel_emb, ent_emb = matcher.rel_emb.data, matcher.ent_emb.data
    x = np.hstack([np.where(r_flat[:, None] >= 0, rel_emb[r_flat], 0.0),
                   np.where(e_flat[:, None] >= 0, ent_emb[e_flat], 0.0)])
    real = r_flat >= 0
    if rng is not None and matcher.dropout > 0:
        keep = 1.0 - matcher.dropout
        x[real] *= (rng.random((real.sum(), x.shape[1])) < keep) / keep
    affine = (x @ matcher.w_c.data + matcher.b_c.data) * real[:, None]
    sums = affine.reshape(ids.size, cap, -1).sum(axis=1)
    if matcher.use_scaling_factor:
        sums = sums / np.maximum(counts, 1.0)[:, None]
    return np.tanh(np.where(counts[:, None] > 0, sums, 0.0))


def gate_blocks(cell):
    """Per-gate (input, [recurrent; side], bias) blocks of the fused cell."""
    h = cell.W_h.shape[0]
    w_hs = np.vstack([cell.W_h.data, cell.W_s.data])
    return {gate: (cell.W_x.data[:, k * h:(k + 1) * h], w_hs[:, k * h:(k + 1) * h],
                   cell.b.data[k * h:(k + 1) * h])
            for k, gate in enumerate(GATES)}


def unfactored_match_scores(matcher, support, queries):
    """The matching processor with the reference row fed at every step.

    Each step concatenates the state with the broadcast reference and runs
    one matrix product per gate over the query input and over that
    concatenation, starting from a zero state and cell.
    """
    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    blocks = gate_blocks(matcher.cell)
    batch = queries.shape[0]
    h = np.zeros((batch, 2 * matcher.dim))
    c = np.zeros((batch, 2 * matcher.dim))
    s_rows = np.broadcast_to(support, (batch, support.shape[0]))
    for _ in range(matcher.steps):
        hin = np.hstack([h, s_rows])
        pre = {g: queries @ w_x + hin @ w_hs + b for g, (w_x, w_hs, b) in blocks.items()}
        c = sigmoid(pre["f"]) * c + sigmoid(pre["i"]) * np.tanh(pre["g"])
        h = sigmoid(pre["o"]) * np.tanh(c) + queries
    return h @ support / (np.linalg.norm(h, axis=1) * np.linalg.norm(support))


def per_query_score_fn(matcher, graph, references_by_task=None):
    """A per-task scorer that matches each query against each reference."""
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


# ---------------------------------------------------------------------------
# autodiff


def cosine(x, y):
    """Cosine similarity of two 1-D tensors as a scalar tensor."""
    x = ad._to_tensor(x)
    scores, _ = ad.rowwise_cosine(ad.reshape(x, (1, x.shape[0])), y)
    return ad.reshape(scores, ())
