"""Synthetic knowledge graph with a planted one-hop signature.

The generator emits 2,000 entities, 20 background relations and 10 task
relations. Each task relation links head entities of one class to a small
set of tail entities of the same class; every true tail carries a class
beacon reachable through a marker relation, and type-sharing distractors
carry beacons of other classes. The correct tail of any query is therefore
recoverable from one-hop neighbors alone, which a brute-force beacon-matching
oracle exploits to verify that the task is solvable before any learned model
is judged against it.
"""

from __future__ import annotations

import numpy as np

N_CLASSES = 10
TAILS_PER_CLASS = 3
DISTRACTORS_PER_CLASS = 140
HEADS_PER_CLASS = 25
N_MISC = 300
NOISE_PER_ENTITY = 5
NOISE_PER_TAIL = 2
MARKER_RELATION = "brel_00"
HEAD_MARKER_RELATION = "brel_01"
N_NOISE_RELATIONS = 18


def generate(seed=0):
    """Return the raw dump as a list of (head, relation, tail) name triples."""
    rng = np.random.default_rng(seed)
    tails = {c: ["concept:pool%d:t%d" % (c, j) for j in range(TAILS_PER_CLASS)]
             for c in range(N_CLASSES)}
    distractors = {c: ["concept:pool%d:d%d" % (c, j) for j in range(DISTRACTORS_PER_CLASS)]
                   for c in range(N_CLASSES)}
    heads = {c: ["concept:head%d:h%d" % (c, j) for j in range(HEADS_PER_CLASS)]
             for c in range(N_CLASSES)}
    tail_beacons = ["concept:beacon:tb%d" % c for c in range(N_CLASSES)]
    head_beacons = ["concept:beacon:hb%d" % c for c in range(N_CLASSES)]
    misc = ["concept:misc:m%d" % i for i in range(N_MISC)]

    everything = ([e for c in range(N_CLASSES) for e in tails[c]]
                  + [e for c in range(N_CLASSES) for e in distractors[c]]
                  + [e for c in range(N_CLASSES) for e in heads[c]]
                  + tail_beacons + head_beacons + misc)
    assert len(everything) == 2000

    rows = []
    # planted signatures: true tails point at their class beacon
    for c in range(N_CLASSES):
        for t in tails[c]:
            rows.append((t, MARKER_RELATION, tail_beacons[c]))
        # distractors share the type but carry a different class's beacon
        for d in distractors[c]:
            other = int(rng.integers(N_CLASSES - 1))
            if other >= c:
                other += 1
            rows.append((d, MARKER_RELATION, tail_beacons[other]))
        for h in heads[c]:
            rows.append((h, HEAD_MARKER_RELATION, head_beacons[c]))
    for m in misc:
        rows.append((m, HEAD_MARKER_RELATION, head_beacons[int(rng.integers(N_CLASSES))]))

    # uniform noise over the remaining background relations; relations are
    # assigned round-robin so every count stays above the task band
    noise_sources = [(e, NOISE_PER_TAIL) for c in range(N_CLASSES) for e in tails[c]]
    noise_sources += [(e, NOISE_PER_ENTITY) for c in range(N_CLASSES)
                      for e in distractors[c] + heads[c]]
    noise_sources += [(e, NOISE_PER_ENTITY) for e in misc]
    i = 0
    for e, n_noise in noise_sources:
        for _ in range(n_noise):
            target = everything[int(rng.integers(len(everything)))]
            rows.append((e, "brel_%02d" % (2 + i % N_NOISE_RELATIONS), target))
            i += 1

    # task relations: complete bipartite heads(c) x tails(c)
    for c in range(N_CLASSES):
        for h in heads[c]:
            for t in tails[c]:
                rows.append((h, "trel_%02d" % c, t))
    return rows


def write_dump(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in rows:
            fh.write("%s\t%s\t%s\n" % (h, r, t))


def beacon_map(background, vocab, marker=MARKER_RELATION):
    """entity-id -> beacon-id reached through the marker relation."""
    marker_id = vocab.rel2id[marker]
    return {h: t for h, r, t in background if r == marker_id}


def oracle_score_fn(dataset):
    """Brute-force signature matcher: 1 when a candidate shares the reference
    tail's beacon, else 0. Independent of the learned model."""
    beacons = beacon_map(dataset.background, dataset.vocab)

    def score_fn(task, queries):
        target = beacons.get(task.reference.tail)
        return [np.array([1.0 if target is not None and beacons.get(c) == target else 0.0
                          for c in cands]) for _, cands in queries]
    return score_fn
