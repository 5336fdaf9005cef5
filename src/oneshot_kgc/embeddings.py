"""Baseline KG-embedding models trained on triples with negative sampling.

Four models: TransE, DistMult, ComplEx and RESCAL. TransE and RESCAL train
with a margin ranking loss; DistMult and ComplEx with a softplus logistic
loss plus L2 regularization. Tables are saved in their native form; the
matching model consumes them exported to one 1-D vector per symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .errors import ConfigError, DataError, NumericError

MODELS = ("TransE", "DistMult", "ComplEx", "RESCAL")


@dataclass
class EmbeddingTable:
    model: str
    dim: int
    ent: np.ndarray              # (E, d); ComplEx: (E, 2, d/2) with [re, im]
    rel: np.ndarray              # (R, d); ComplEx: (R, 2, d/2); RESCAL: (R, d, d)
    metadata: dict = field(default_factory=dict)

    @property
    def n_entities(self):
        return self.ent.shape[0]

    @property
    def n_relations(self):
        return self.rel.shape[0]


def _init_uniform(rng, shape, dim):
    bound = np.sqrt(6.0 / (2 * dim))
    return rng.uniform(-bound, bound, size=shape)


def _native_shapes(model, dim):
    """Per-entity and per-relation array shapes of a ``model`` table."""
    if model == "ComplEx":
        return (2, dim // 2), (2, dim // 2)
    if model == "RESCAL":
        return (dim,), (dim, dim)
    return (dim,), (dim,)


def init_table(model, n_ent, n_rel, dim, rng):
    if model not in MODELS and model != "random":
        raise ConfigError("unknown embedding model %r" % model)
    if dim <= 0:
        raise ConfigError("embedding dimension must be positive")
    if model == "ComplEx" and dim % 2:
        raise ConfigError("ComplEx requires an even dimension")
    ent_shape, rel_shape = _native_shapes(model, dim)
    return EmbeddingTable(model, dim, _init_uniform(rng, (n_ent,) + ent_shape, dim),
                          _init_uniform(rng, (n_rel,) + rel_shape, dim))


def random_table(n_ent, n_rel, dim, seed=0):
    """Seeded i.i.d. table from the initialization distribution (no training)."""
    rng = np.random.default_rng(seed)
    table = EmbeddingTable("random", dim, _init_uniform(rng, (n_ent, dim), dim),
                           _init_uniform(rng, (n_rel, dim), dim))
    table.metadata = {"model": "random", "dim": dim, "seed": seed}
    return table


# ---------------------------------------------------------------------------
# scoring


def score_batch(table, h, r, t):
    """Model score for index arrays (higher = more plausible)."""
    h = np.asarray(h, dtype=np.intp)
    r = np.asarray(r, dtype=np.intp)
    t = np.asarray(t, dtype=np.intp)
    m = table.model
    if m == "TransE":
        return -np.linalg.norm(table.ent[h] + table.rel[r] - table.ent[t], axis=-1)
    if m == "DistMult" or m == "random":
        return np.sum(table.ent[h] * table.rel[r] * table.ent[t], axis=-1)
    if m == "ComplEx":
        hr, hi = table.ent[h, 0], table.ent[h, 1]
        rr, ri = table.rel[r, 0], table.rel[r, 1]
        tr, ti = table.ent[t, 0], table.ent[t, 1]
        return np.sum(hr * rr * tr + hi * rr * ti + hr * ri * ti - hi * ri * tr, axis=-1)
    if m == "RESCAL":
        return np.einsum("bi,bij,bj->b", table.ent[h], table.rel[r], table.ent[t])
    raise ConfigError("unknown embedding model %r" % m)


def score(table, h, r, t):
    return float(score_batch(table, [h], [r], [t])[0])


def score_candidates(table, head, relation, candidates):
    cands = np.asarray(candidates, dtype=np.intp)
    h = np.full(cands.shape, head, dtype=np.intp)
    r = np.full(cands.shape, relation, dtype=np.intp)
    return score_batch(table, h, r, cands)


# ---------------------------------------------------------------------------
# training


def _sample_negatives(rng, pos, n_ent, mode, k):
    """Corrupted copies of each positive; mode: tail, head or both."""
    n = pos.shape[0] * k
    neg = np.repeat(pos, k, axis=0)
    corrupt = rng.integers(n_ent, size=n)
    if mode == "tail":
        neg[:, 2] = corrupt
    elif mode == "head":
        neg[:, 0] = corrupt
    elif mode == "both":
        pick_tail = rng.random(n) < 0.5
        neg[pick_tail, 2] = corrupt[pick_tail]
        neg[~pick_tail, 0] = corrupt[~pick_tail]
    else:
        raise ConfigError("corruption mode must be tail, head or both")
    return neg


def train_embeddings(triples, n_ent, n_rel, model="TransE", dim=100, epochs=1000,
                     lr=0.01, neg_ratio=2, corruption="tail", margin=1.0,
                     reg=1e-4, batch_size=512, seed=0):
    """Train a baseline model with minibatch SGD; returns (table, epoch losses).

    ``triples`` is an (N, 3) array of (head, relation, tail) ids or a
    sequence of :class:`~oneshot_kgc.graph_store.Triple`. A run whose epoch
    loss or final tables are not finite has diverged: a :class:`NumericError`.
    """
    if epochs <= 0:
        raise ConfigError("epochs must be positive")
    if neg_ratio < 1:
        raise ConfigError("need at least one negative per positive")
    rng = np.random.default_rng(seed)
    table = init_table(model, n_ent, n_rel, dim, rng)
    if model == "TransE":
        _renormalize_rows(table.ent)
    data = np.asarray(triples, dtype=np.intp).reshape(-1, 3)
    if data.size == 0:
        raise DataError("no training triples")

    losses = []
    # a diverged run overflows on the way; it is reported as a NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            order = rng.permutation(data.shape[0])
            epoch_loss = 0.0
            for start in range(0, data.shape[0], batch_size):
                batch = data[order[start:start + batch_size]]
                neg = _sample_negatives(rng, batch, n_ent, corruption, neg_ratio)
                if model == "TransE":
                    epoch_loss += _step_transe(table, batch, neg, neg_ratio, lr, margin)
                elif model == "RESCAL":
                    epoch_loss += _step_rescal(table, batch, neg, neg_ratio, lr, margin)
                else:
                    epoch_loss += _step_logistic(table, batch, neg, lr, reg)
            losses.append(epoch_loss / data.shape[0])
            if not np.isfinite(losses[-1]):
                raise NumericError("%s training diverged: mean loss %r at epoch %d"
                                   % (model, float(losses[-1]), epoch))
    if not (np.isfinite(table.ent).all() and np.isfinite(table.rel).all()):
        raise NumericError("%s training diverged: non-finite table values after epoch %d"
                           % (model, epochs))
    table.metadata = {"model": model, "dim": dim, "seed": seed, "epochs": epochs,
                      "neg_ratio": neg_ratio, "corruption": corruption}
    return table, losses


RENORM_BLOCK = 4096     # rows per block of the TransE renormalisation and RESCAL projection
TRANSE_BLOCK = 2048     # positives per block of a TransE step, each with its k negatives
SCATTER_CHUNK = 1024    # rows per np.add.at call of a scatter


def _scatter_add(table, rows, values, subtract=False):
    """``np.add.at(table, rows, values)`` through the table's flat 1-D view,
    ``SCATTER_CHUNK`` rows at a time; ``np.subtract.at`` when ``subtract``.

    Each element of the table receives its additions in the same order as
    under one ``np.add.at`` on the table itself, so the result is the same
    bits (``a - b`` is ``a + (-b)`` exactly). NumPy's 1-D path makes it about
    twice as fast, and each chunk builds only its own flat index.
    """
    flat = table.reshape(-1)        # a view: tables are C-contiguous
    width = int(np.prod(table.shape[1:]))
    offsets = np.arange(width)
    scatter = np.subtract.at if subtract else np.add.at
    for start in range(0, rows.shape[0], SCATTER_CHUNK):
        index = rows[start:start + SCATTER_CHUNK, None] * width + offsets
        scatter(flat, index.ravel(), values[start:start + SCATTER_CHUNK].ravel())


def _row_blocks(E):
    """Views of ``RENORM_BLOCK`` consecutive rows of ``E``."""
    return (E[start:start + RENORM_BLOCK] for start in range(0, E.shape[0], RENORM_BLOCK))


def _row_norms(x):
    """Euclidean norm of each row of the 2-D array ``x``."""
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _renormalize_rows(E):
    """Scale every row of ``E`` to unit length, one block of rows at a time,
    without a temporary the size of the table."""
    for block in _row_blocks(E):
        block /= np.maximum(_row_norms(block), 1e-12)[:, None]


def _step_transe(table, pos, neg, k, lr, margin):
    """One SGD step of the margin loss, ``TRANSE_BLOCK`` positives at a time.

    ``neg`` holds k negatives per positive, in the positives' order. Every
    block reads the table as it was before the step, and the gradients are
    applied after the last block, so the tables equal a whole-batch step's
    up to rounding. A positive's head and relation take one folded update:
    its own -gp plus the +gn of each active negative that kept them (every
    negative under tail corruption). Working memory is the gradient rows plus
    one block's temporaries.
    """
    E, R = table.ent, table.rel
    d = E.shape[1]
    loss, blocks = 0.0, []
    for start in range(0, pos.shape[0], TRANSE_BLOCK):
        p = pos[start:start + TRANSE_BLOCK]
        n = neg[start * k:(start + p.shape[0]) * k]
        hr = E[p[:, 0]]
        hr += R[p[:, 1]]
        gp = E[p[:, 2]]
        np.subtract(hr, gp, out=gp)
        # a negative reuses its positive's h + r row unless it moved them
        gn = E[n[:, 2]]
        np.subtract(hr[:, None, :], gn.reshape(-1, k, d), out=gn.reshape(-1, k, d))
        moved = np.flatnonzero((n[:, :2].reshape(-1, k, 2) != p[:, None, :2]).any(axis=2))
        if moved.size:
            gn[moved] = E[n[moved, 0]] + R[n[moved, 1]] - E[n[moved, 2]]
        dp, dn = _row_norms(gp), _row_norms(gn)
        viol = margin + dp[:, None] - dn.reshape(-1, k)
        active = viol > 0
        loss += viol[active].sum()
        # one pass per row: gp = up * wp * lr, with wp each positive's count
        # of active negatives, and gn = un * lr, 0 for an inactive negative
        gp *= (np.count_nonzero(active, axis=1) * lr / np.maximum(dp, 1e-12))[:, None]
        active = active.ravel()
        gn *= np.where(active, lr / np.maximum(dn, 1e-12), 0.0)[:, None]
        blocks.append((p, n, active, moved[active[moved]], gp, gn))
    if loss > 0:
        while blocks:   # popping frees each block's gradient rows once applied
            p, n, active, moved, gp, gn = blocks.pop()
            # a positive's t moves by +gp and a negative's by -gn
            _scatter_add(E, p[:, 2], gp)
            _scatter_add(E, n[active, 2], gn[active], subtract=True)
            if moved.size:
                _scatter_add(E, n[moved, 0], gn[moved])
                _scatter_add(R, n[moved, 1], gn[moved])
                gn[moved] = 0.0
            # a positive's h and r move by -gp plus the +gn of its unmoved negatives
            fold = gn.reshape(-1, k, d).sum(axis=1)
            fold -= gp
            _scatter_add(E, p[:, 0], fold)
            _scatter_add(R, p[:, 1], fold)
        _renormalize_rows(E)
    return loss


def _step_rescal(table, pos, neg, k, lr, margin):
    E, M = table.ent, table.rel
    sp = np.einsum("bi,bij,bj->b", E[pos[:, 0]], M[pos[:, 1]], E[pos[:, 2]])
    sn = np.einsum("bi,bij,bj->b", E[neg[:, 0]], M[neg[:, 1]], E[neg[:, 2]])
    viol = margin + sn - np.repeat(sp, k)
    active = viol > 0
    loss = viol[active].sum()
    if loss > 0:
        wp = np.bincount(np.arange(pos.shape[0]).repeat(k)[active],
                         minlength=pos.shape[0]).astype(float)
        hp, tp, mp = E[pos[:, 0]], E[pos[:, 2]], M[pos[:, 1]]
        _scatter_add(E, pos[:, 0], lr * wp[:, None] * np.einsum("bij,bj->bi", mp, tp))
        _scatter_add(E, pos[:, 2], lr * wp[:, None] * np.einsum("bi,bij->bj", hp, mp))
        _scatter_add(M, pos[:, 1], lr * wp[:, None, None] * np.einsum("bi,bj->bij", hp, tp))
        na = neg[active]
        hn, tn, mn = E[na[:, 0]], E[na[:, 2]], M[na[:, 1]]
        _scatter_add(E, na[:, 0], -lr * np.einsum("bij,bj->bi", mn, tn))
        _scatter_add(E, na[:, 2], -lr * np.einsum("bi,bij->bj", hn, mn))
        _scatter_add(M, na[:, 1], -lr * np.einsum("bi,bj->bij", hn, tn))
        # project rows longer than 1 back onto the unit ball
        for block in _row_blocks(E):
            norms = np.linalg.norm(block, axis=1, keepdims=True)
            np.divide(block, norms, out=block, where=norms > 1.0)
    return loss


def _step_logistic(table, pos, neg, lr, reg):
    """Softplus logistic loss step for DistMult / ComplEx."""
    trip = np.concatenate([pos, neg], axis=0)
    y = np.concatenate([np.ones(pos.shape[0]), -np.ones(neg.shape[0])])
    s = score_batch(table, trip[:, 0], trip[:, 1], trip[:, 2])
    z = -y * s
    loss = np.logaddexp(0.0, z).sum()
    dl_ds = -y / (1.0 + np.exp(-z))       # sigmoid(z) * (-y)
    h, r, t = trip[:, 0], trip[:, 1], trip[:, 2]
    if table.model == "DistMult":
        E, R = table.ent, table.rel
        gh = dl_ds[:, None] * R[r] * E[t] + 2 * reg * E[h]
        gr = dl_ds[:, None] * E[h] * E[t] + 2 * reg * R[r]
        gt = dl_ds[:, None] * E[h] * R[r] + 2 * reg * E[t]
        _scatter_add(E, h, -lr * gh)
        _scatter_add(R, r, -lr * gr)
        _scatter_add(E, t, -lr * gt)
    else:  # ComplEx
        E, R = table.ent, table.rel
        hr, hi = E[h, 0], E[h, 1]
        rr, ri = R[r, 0], R[r, 1]
        tr, ti = E[t, 0], E[t, 1]
        d = dl_ds[:, None]
        gh = np.stack([d * (rr * tr + ri * ti), d * (rr * ti - ri * tr)], axis=1) + 2 * reg * E[h]
        gr = np.stack([d * (hr * tr + hi * ti), d * (hr * ti - hi * tr)], axis=1) + 2 * reg * R[r]
        gt = np.stack([d * (hr * rr - hi * ri), d * (hi * rr + hr * ri)], axis=1) + 2 * reg * E[t]
        _scatter_add(E, h, -lr * gh)
        _scatter_add(R, r, -lr * gr)
        _scatter_add(E, t, -lr * gt)
    return loss


# ---------------------------------------------------------------------------
# export to unified 1-D vectors


def export_vectors(table):
    """Flatten a native table to one d-vector per entity and per relation.

    RESCAL relation matrices are mean-pooled row-wise; ComplEx vectors are the
    concatenation of the real and imaginary parts; TransE and DistMult are
    exported unchanged. Arrays that need no change are shared, not copied.
    """
    meta = dict(table.metadata)
    ent, rel = table.ent, table.rel
    if table.model == "RESCAL":
        rel = rel.mean(axis=2)
        meta["rescal_pooling"] = "row-wise mean"
    elif table.model == "ComplEx":
        ent = ent.reshape(table.n_entities, table.dim)
        rel = rel.reshape(table.n_relations, table.dim)
        meta["complex_layout"] = "real ++ imaginary"
    meta["exported_from"] = table.model
    return EmbeddingTable(table.model, table.dim, ent, rel, meta)


# ---------------------------------------------------------------------------
# persistence (one checkpoint file: a JSON metadata header, then the arrays)


def save_table(path, table):
    autodiff.save_checkpoint(path, {"entities": table.ent, "relations": table.rel},
                             metadata={"model": table.model, "dim": table.dim,
                                       **table.metadata})


def load_table(path):
    """A native table saved by :func:`save_table`. Metadata without a known
    model and a positive integer dim, a file without the entities and
    relations arrays (a matcher checkpoint, say), and arrays of another shape
    (an exported ComplEx or RESCAL table) are data errors."""
    arrays, meta = autodiff.load_checkpoint(path)
    model, dim = meta.get("model"), meta.get("dim")
    if model not in MODELS + ("random",) or type(dim) is not int or dim <= 0:
        raise DataError("table %s is not an embedding table: its metadata records model %r "
                        "and dim %r" % (path, model, dim))
    if not {"entities", "relations"} <= arrays.keys():
        raise DataError("table %s is not an embedding table: it holds no entities and "
                        "relations arrays" % path)
    table = EmbeddingTable(model, dim, arrays["entities"], arrays["relations"], meta)
    ent_shape, rel_shape = _native_shapes(table.model, table.dim)
    if table.ent.shape[1:] != ent_shape or table.rel.shape[1:] != rel_shape:
        raise DataError("table %s: arrays of shape %s and %s do not fit a native %s table "
                        "of dimension %d" % (path, table.ent.shape, table.rel.shape,
                                             table.model, table.dim))
    return table
