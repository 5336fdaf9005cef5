"""NELL-One-shaped knowledge graph with a planted one-hop signature.

The graph has the entity, relation and triple counts of NELL-One (68,545
entities, 358 relations, 181,109 triples, 67 task relations) and is solvable
from one-hop neighbours in the same way as the program's 2,000-entity
synthetic graph:

* task relation ``c`` links the heads of class ``c`` to the true tails of
  class ``c`` (complete bipartite, ``HEADS x TAILS`` triples);
* every entity of the tail type ``pool<c>`` points through the marker
  relation at a beacon: true tails at beacon ``c``, type-sharing
  distractors at the beacon of another class.

Whatever split of the 67 task relations is chosen, the true tail of every
query is the only candidate that shares the reference tail's beacon once the
other known tails of the query head are filtered out. :func:`beacon_oracle`
ranks with exactly that rule and is written apart from the program.

Background out-degrees lie in [1, 49], under the program's neighbour cap of
50, and follow a truncated power law whose mean matches NELL-One's
triples-per-entity ratio. The seed changes distractor beacons, degrees and
noise edges; the shape is the same for every seed.
"""

from __future__ import annotations

import numpy as np

N_ENTITIES = 68545
N_RELATIONS = 358
N_TRIPLES = 181109
N_TASKS = 67
HEADS = 3                  # heads per task class
TAILS = 2                  # true tails per task class
DISTRACTORS = 98           # type-sharing distractors per task class
N_MISC_TYPES = 200
MAX_DEGREE = 49
DEGREE_EXPONENT = 2.1

MARKER = "concept:beaconof"
HEAD_MARKER = "concept:headbeaconof"
TASK_TRIPLES = HEADS * TAILS
N_NOISE_RELATIONS = N_RELATIONS - N_TASKS - 2


def task_relation(c):
    return "concept:task_%02d" % c


def _names():
    """Entity names grouped by role; the type is the second ':' segment."""
    heads = [["concept:head%02d:h%d" % (c, j) for j in range(HEADS)] for c in range(N_TASKS)]
    tails = [["concept:pool%02d:t%d" % (c, j) for j in range(TAILS)] for c in range(N_TASKS)]
    distractors = [["concept:pool%02d:d%d" % (c, j) for j in range(DISTRACTORS)]
                   for c in range(N_TASKS)]
    tail_beacons = ["concept:beacon:tb%02d" % c for c in range(N_TASKS)]
    head_beacons = ["concept:beacon:hb%02d" % c for c in range(N_TASKS)]
    n_misc = N_ENTITIES - N_TASKS * (HEADS + TAILS + DISTRACTORS + 2)
    misc = ["concept:misc%03d:m%d" % (i % N_MISC_TYPES, i) for i in range(n_misc)]
    return heads, tails, distractors, tail_beacons, head_beacons, misc


def _degrees(rng, floor, total):
    """Out-degrees in [max(1, floor), MAX_DEGREE] summing exactly to ``total``."""
    k = np.arange(1, MAX_DEGREE + 1)
    p = k ** -DEGREE_EXPONENT
    deg = rng.choice(k, size=floor.size, p=p / p.sum())
    deg = np.maximum(deg, np.maximum(floor, 1))
    while True:
        diff = total - int(deg.sum())
        if diff == 0:
            return deg
        step = 1 if diff > 0 else -1
        movable = np.flatnonzero(deg < MAX_DEGREE) if step > 0 else \
            np.flatnonzero(deg > np.maximum(floor, 1))
        pick = rng.choice(movable, size=min(abs(diff), movable.size), replace=False)
        deg[pick] += step


def generate(seed):
    """Return the raw dump as a list of (head, relation, tail) name triples."""
    rng = np.random.default_rng(seed)
    heads, tails, distractors, tail_beacons, head_beacons, misc = _names()

    rows = []
    for c in range(N_TASKS):
        for t in tails[c]:
            rows.append((t, MARKER, tail_beacons[c]))
        others = rng.integers(N_TASKS - 1, size=DISTRACTORS)
        others += others >= c
        for d, o in zip(distractors[c], others):
            rows.append((d, MARKER, tail_beacons[int(o)]))
        for h in heads[c]:
            rows.append((h, HEAD_MARKER, head_beacons[c]))
    n_marker = len(rows)

    # every entity has background out-degree >= 1; marker edges count toward it
    sources = ([e for c in range(N_TASKS) for e in tails[c] + distractors[c] + heads[c]]
               + tail_beacons + head_beacons + misc)
    floor = np.zeros(len(sources), dtype=np.int64)
    floor[:n_marker] = 1
    background = N_TRIPLES - N_TASKS * TASK_TRIPLES
    noise = _degrees(rng, floor, background) - floor

    # noise tails avoid the beacons so the signature stays one-hop exact;
    # relations are dealt round-robin so each noise relation has the same count
    # and an entity's edges (at most 49 < N_NOISE_RELATIONS) never repeat one
    targets = [e for e in sources if ":beacon:" not in e]
    picks = rng.integers(len(targets), size=int(noise.sum()))
    noise_rel = ["concept:bg_%03d" % k for k in range(N_NOISE_RELATIONS)]
    i = 0
    for e, n in zip(sources, noise.tolist()):
        for _ in range(n):
            rows.append((e, noise_rel[i % N_NOISE_RELATIONS], targets[picks[i]]))
            i += 1

    for c in range(N_TASKS):
        rel = task_relation(c)
        rows.extend((h, rel, t) for h in heads[c] for t in tails[c])
    return rows


def write_dump(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("%s\t%s\t%s\n" % row for row in rows)


def beacon_oracle(background, marker):
    """Score function ``(reference_tail, candidates) -> scores`` over names.

    A candidate scores 1 when it reaches the same entity as the reference
    tail through ``marker`` in the background triples, else 0.
    """
    beacon = {h: t for h, r, t in background if r == marker}

    def score(reference_tail, candidates):
        target = beacon.get(reference_tail)
        return [1 if target is not None and beacon.get(c) == target else 0
                for c in candidates]
    return score
