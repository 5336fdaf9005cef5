"""Triple ingestion, vocabularies, the background graph and candidate sets.

Triples are integer-coded against dense vocabularies assigned in
first-appearance order. The background graph stores, per entity, its outgoing
one-hop (relation, entity) tuples capped at a configurable maximum, as
compressed sparse rows; candidate sets for a query are built from the entity
type constraint, through a type -> entity-id index made once per build.
"""

from __future__ import annotations

import contextlib
from typing import NamedTuple

import numpy as np

from .errors import DataError, ParseError


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


class Vocab:
    """Bijective name<->id maps for entities and relations, plus type tags.

    The default type tag is the second ':'-separated segment of the entity
    name (names like "concept:sport:tennis" tag as "sport"); names without a
    ':' use the full name. A sidecar entity->type table overrides this.
    """

    def __init__(self):
        self.ent2id = {}
        self.id2ent = []
        self.rel2id = {}
        self.id2rel = []
        self._type_override = {}

    @property
    def n_entities(self):
        return len(self.id2ent)

    @property
    def n_relations(self):
        return len(self.id2rel)

    def add_entity(self, name):
        eid = self.ent2id.get(name)
        if eid is None:
            eid = len(self.id2ent)
            self.ent2id[name] = eid
            self.id2ent.append(name)
        return eid

    def add_relation(self, name):
        rid = self.rel2id.get(name)
        if rid is None:
            rid = len(self.id2rel)
            self.rel2id[name] = rid
            self.id2rel.append(name)
        return rid

    def entity_type(self, eid):
        name = self.id2ent[eid]
        if name in self._type_override:
            return self._type_override[name]
        parts = name.split(":", 2)
        return parts[1] if len(parts) >= 2 else name

    def apply_type_sidecar(self, path):
        """Load a two-column (entity, type) TSV overriding default type tags."""
        with open_input(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ParseError("%s: line %d: expected 2 tab-separated fields, got %d"
                                     % (path, lineno, len(parts)))
                self._type_override[parts[0]] = parts[1]


@contextlib.contextmanager
def open_input(path):
    """A UTF-8 text file opened for reading.

    A file that cannot be opened, or that turns out not to be UTF-8 while
    the ``with`` body reads it, is a :class:`DataError` naming the file.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc.strerror)) from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError("%s: not UTF-8 text: %s" % (path, exc)) from None


def load_triples(path, vocab=None):
    """Parse a tab-separated head/relation/tail file into coded triples.

    Returns (triples, vocab); ids are assigned in first-appearance order when
    a fresh vocab is built, otherwise the given vocab is extended in place.
    """
    if vocab is None:
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


def save_triples(path, triples, vocab):
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in triples:
            fh.write("%s\t%s\t%s\n" % (vocab.id2ent[h], vocab.id2rel[r], vocab.id2ent[t]))


class BackgroundGraph:
    """Outgoing neighbor lists over background relations only, in CSR form.

    The neighbors of entity ``e`` are ``(rel[k], ent[k])`` for ``k`` in
    ``indptr[e]:indptr[e + 1]``; no list is longer than ``max_neighbors``.
    """

    def __init__(self, indptr, rel, ent, max_neighbors):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.rel = np.asarray(rel, dtype=np.intp)
        self.ent = np.asarray(ent, dtype=np.intp)
        self.max_neighbors = max_neighbors
        if np.any(np.diff(self.indptr) > max_neighbors):
            raise DataError("a neighbor list exceeds the cap of %d" % max_neighbors)

    @property
    def n_entities(self):
        return self.indptr.size - 1


def build_neighbor_index(triples, n_entities, max_neighbors=50):
    """Build the background graph, capping each neighbor list at the maximum.

    ``triples`` is an (N, 3) array of (head, relation, tail) ids, such as a
    loaded dataset's background, or a sequence of :class:`Triple`.

    Each entity's list keeps its triples in input order. Over-cap lists are
    downsampled once, uniformly without replacement, in ascending entity
    order from one fixed random stream, so the graph depends only on
    (triples, cap): training and evaluation see the same graph.
    """
    if max_neighbors <= 0:
        raise DataError("max_neighbors must be positive")
    coded = np.asarray(triples, dtype=np.intp).reshape(-1, 3)
    coded = coded[np.argsort(coded[:, 0], kind="stable")]
    counts = np.bincount(coded[:, 0], minlength=n_entities)
    if counts.size != n_entities or (coded.size and coded[:, 2].max() >= n_entities):
        raise DataError("background triples name entities beyond the %d known" % n_entities)
    starts = np.concatenate([[0], np.cumsum(counts)])
    keep = np.ones(len(coded), dtype=bool)
    rng = np.random.default_rng(0)
    for eid in np.flatnonzero(counts > max_neighbors):
        picked = rng.choice(int(counts[eid]), size=max_neighbors, replace=False)
        dropped = np.ones(counts[eid], dtype=bool)
        dropped[picked] = False
        keep[starts[eid] + np.flatnonzero(dropped)] = False
    coded = coded[keep]
    indptr = np.concatenate([[0], np.cumsum(np.minimum(counts, max_neighbors))])
    return BackgroundGraph(indptr, coded[:, 1], coded[:, 2], max_neighbors)


class TypeIndex:
    """Entity ids grouped by type tag, from one pass over a vocabulary.

    ``codes[e]`` numbers the type of entity ``e``; the entities of type code
    ``k`` are ``ids[indptr[k]:indptr[k + 1]]``, in ascending id order. Type
    overrides count as the vocabulary holds them when the index is built.
    """

    def __init__(self, vocab):
        numbering = {}
        self.codes = np.array([numbering.setdefault(vocab.entity_type(e), len(numbering))
                               for e in range(vocab.n_entities)], dtype=np.intp)
        self.ids = np.argsort(self.codes, kind="stable")
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(self.codes))])


def build_candidates(truth, observed_tails, vocab, floor=20, rng=None, index=None):
    """Type-constrained candidate set for a query, always containing the truth.

    Candidates are all entities whose type tag matches the type of any
    observed tail of the relation, union the truth, in ascending entity id.
    When type matching yields fewer than ``floor`` candidates, seeded uniform
    distractors pad the set up to the floor. ``index`` is the vocabulary's
    :class:`TypeIndex`; a dataset build passes one so that it is made once.
    """
    if index is None:
        index = TypeIndex(vocab)
    kinds = np.unique(index.codes[np.fromiter(observed_tails, dtype=np.intp)])
    typed = [index.ids[index.indptr[k]:index.indptr[k + 1]] for k in kinds]
    cands = np.unique(np.concatenate(typed + [[truth]]))
    if cands.size < floor:
        if rng is None:
            rng = np.random.default_rng(0)
        pool = np.setdiff1d(np.arange(vocab.n_entities), cands, assume_unique=True)
        need = min(floor - cands.size, pool.size)
        if need > 0:
            cands = np.union1d(cands, rng.choice(pool, size=need, replace=False))
    if cands.size < 2:
        raise DataError("candidate set for truth %d has fewer than 2 entries" % truth)
    return cands.tolist()
