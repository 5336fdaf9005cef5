"""Triple ingestion, vocabularies, the background graph and candidate sets.

Triples are integer-coded against dense vocabularies assigned in
first-appearance order, and held as one (N, 3) intp array of (head,
relation, tail) ids. A dump is read whole and split once into its fields
(:func:`split_triple_fields`, which the dataset loader shares); a file that
one split does not take whole is read again line by line, which names the
line of the first fault. The background graph stores, per entity, its
outgoing one-hop (relation, entity) tuples capped at a configurable maximum,
as compressed sparse rows. Candidate sets are built from the entity type
constraint, through a type -> entity-id index made once per build.
"""

from __future__ import annotations

import contextlib
import operator
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
        return _name_tag(name)

    def entity_types(self):
        """The type tag of every entity, in id order."""
        override = self._type_override
        return [override[name] if name in override else _name_tag(name)
                for name in self.id2ent]

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


def _name_tag(name):
    return name.split(":", 2)[1] if ":" in name else name


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


def split_triple_fields(path):
    """The fields of a file of ``head<TAB>relation<TAB>tail`` lines, from one
    read of the whole file: an iterator over flat lists (head, relation, tail,
    head, ...) of whole lines, about :data:`CHUNK_CHARS` characters each, so
    that only one list's strings are alive at a time.

    Returns None for a file that one split does not take whole: one with a
    line that does not hold exactly two tabs (a blank line among them), a
    carriage return or another control byte below it, no final newline, or
    bytes that are not UTF-8. A caller reads such a file again line by line,
    which names the line of the first fault.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc.strerror)) from None
    # the control bytes up to the carriage return must run tab, tab, newline:
    # every line holds three fields and ends in a bare newline
    buf = np.frombuffer(data, dtype=np.uint8)
    separators = buf[buf <= 13]
    del buf
    if (separators.size % 3 or not (separators.reshape(-1, 3) == (9, 9, 10)).all()
            or data and not data.endswith(b"\n")):
        return None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    return _field_chunks(text)


CHUNK_CHARS = 1 << 16      # about how much text split_triple_fields splits at a time


def _field_chunks(text):
    start = 0
    while start < len(text):
        end = text.find("\n", start + CHUNK_CHARS) + 1 or len(text)
        fields = text[start:end].replace("\n", "\t").split("\t")
        fields.pop()            # the empty text after the chunk's last newline
        yield fields
        start = end


def _code_names(names, name2id, id2name):
    """The ids of ``names`` (one id for one name), after adding the names not
    yet known to the vocabulary maps in first-appearance order."""
    fresh = [name for name in dict.fromkeys(names) if name not in name2id]
    name2id.update(zip(fresh, range(len(id2name), len(id2name) + len(fresh))))
    id2name.extend(fresh)
    return operator.itemgetter(*names)(name2id)


def load_triples(path):
    """Parse a tab-separated head/relation/tail file into coded triples.

    Returns (triples, vocab): ``triples`` is an (N, 3) intp array of (head,
    relation, tail) ids, one row per line, with ids assigned in
    first-appearance order (a line's head before its tail).
    """
    chunks = split_triple_fields(path)
    if chunks is None:
        return _load_triple_lines(path)
    vocab = Vocab()
    blocks = []
    for fields in chunks:
        block = np.empty((len(fields) // 3, 3), dtype=np.intp)
        block[:, 1] = _code_names(fields[1::3], vocab.rel2id, vocab.id2rel)
        del fields[1::3]        # the fields now alternate head, tail
        block[:, 0::2] = np.reshape(_code_names(fields, vocab.ent2id, vocab.id2ent), (-1, 2))
        blocks.append(block)
    if not blocks:
        raise ParseError("%s: no triples found" % path)
    return np.concatenate(blocks), vocab


def _load_triple_lines(path):
    """:func:`load_triples` one line at a time, for a file with a fault."""
    vocab = Vocab()
    rows = []
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
            rows.append((vocab.add_entity(h), vocab.add_relation(r), vocab.add_entity(t)))
    if not rows:
        raise ParseError("%s: no triples found" % path)
    return np.array(rows, dtype=np.intp), vocab


def save_triples(path, triples, vocab):
    """Write the rows of an (N, 3) id array as tab-separated names, one per
    line, a block of rows at a time."""
    ent = np.array(vocab.id2ent, dtype=object)
    rel = np.array(vocab.id2rel, dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(triples), 1 << 14):
            h, r, t = triples[start:start + (1 << 14)].T
            fh.write("".join(map("%s\t%s\t%s\n".__mod__, zip(ent[h], rel[r], ent[t]))))


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
        tags = vocab.entity_types()
        numbering = {tag: k for k, tag in enumerate(dict.fromkeys(tags))}
        self.codes = np.fromiter(map(numbering.__getitem__, tags), dtype=np.intp,
                                 count=len(tags))
        self.ids = np.argsort(self.codes, kind="stable")
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(self.codes))])


def padding_pool(cands, n_entities, floor):
    """(pool, need): the entities that may pad the candidate set ``cands`` (an
    ascending id array) up to ``floor`` entries, and how many to draw from
    them. ``need`` is 0 when the set is at the floor or holds every entity."""
    if cands.size >= floor:
        return cands[:0], 0
    pool = np.setdiff1d(np.arange(n_entities), cands, assume_unique=True)
    return pool, min(floor - cands.size, pool.size)


def build_candidates(truth, observed_tails, vocab, floor=20, rng=None, index=None):
    """Type-constrained candidate set for a query, always containing the truth.

    Candidates are all entities whose type tag matches the type of any
    observed tail of the relation, union the truth, in ascending entity id.
    When type matching yields fewer than ``floor`` candidates, seeded uniform
    distractors pad the set up to the floor. ``index`` is the vocabulary's
    :class:`TypeIndex`; a dataset build passes one so that it is made once.
    A set of fewer than 2 entries is returned as it is: the dataset build,
    not this function, refuses it for a query.
    """
    if index is None:
        index = TypeIndex(vocab)
    kinds = np.unique(index.codes[np.fromiter(observed_tails, dtype=np.intp)])
    typed = [index.ids[index.indptr[k]:index.indptr[k + 1]] for k in kinds]
    cands = np.unique(np.concatenate(typed + [[truth]]))
    pool, need = padding_pool(cands, vocab.n_entities, floor)
    if need:
        if rng is None:
            rng = np.random.default_rng(0)
        cands = np.union1d(cands, rng.choice(pool, size=need, replace=False))
    return cands.tolist()
