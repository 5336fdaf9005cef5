"""Matching model: permutation-invariant neighbor encoder plus a recurrent
multi-step matching processor scoring query entity pairs against a one-shot
reference pair.

The neighbor encoder maps an entity to tanh of the (scaled) mean of affine
transforms of its one-hop (relation, entity) embedding tuples. The transform
is affine, so the encoder pools the concatenated tuples first and projects
the pooled row once. The matching processor refines the query representation
with an LSTM cell conditioned on the reference and scores with cosine
similarity after a fixed number of steps; the query and the reference enter
the gates the same way at every step, so their gate contributions are
computed once per call. Ablation flags reduce either component to its
trivial form.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, NumericError

# layout of the parameters in a saved matcher or training state; a checkpoint
# recording another version (or none) is rejected on load
FORMAT_VERSION = 2

# the model's settings: Matcher keyword arguments and RunConfig fields of the
# same names, recorded in every saved matcher
SETTINGS = ("steps", "dropout", "max_neighbors", "use_neighbor_encoder",
            "use_matching_processor", "use_scaling_factor")


class Matcher:
    """Holds all trainable tensors and the ablation switches.

    The LSTM state has size 2*dim: the residual query connection and the
    cosine against the reference both put it in the pair space.
    """

    def __init__(self, dim, steps=2, dropout=0.3, max_neighbors=50,
                 use_neighbor_encoder=True, use_matching_processor=True,
                 use_scaling_factor=True, seed=0):
        if steps < 1:
            raise ConfigError("process step count must be >= 1")
        if not 0.0 <= dropout < 1.0:
            raise ConfigError("dropout rate must be in [0, 1)")
        self.dim = dim
        self.steps = steps
        self.dropout = dropout
        self.max_neighbors = max_neighbors
        self.use_neighbor_encoder = use_neighbor_encoder
        self.use_matching_processor = use_matching_processor
        self.use_scaling_factor = use_scaling_factor

        rng = np.random.default_rng(seed)
        self.w_c = ad.Tensor(ad.glorot_uniform(rng, 2 * dim, dim), requires_grad=True)
        self.b_c = ad.Tensor(np.zeros(dim), requires_grad=True)
        # step input = query pair (2d); side input = reference pair (2d)
        self.cell = ad.init_lstm(2 * dim, 2 * dim, 2 * dim, rng)

        self.ent_emb = None
        self.rel_emb = None
        self.embeddings_trainable = True
        self.table_provenance = {}

    # ------------------------------------------------------------------
    # embedding table

    def attach_table(self, table, trainable=True):
        """Install a unified 1-D embedding table (entities and relations)."""
        if table.ent.ndim != 2 or table.dim != self.dim:
            raise ConfigError("table dimension %s does not match matcher dim %d"
                              % (table.dim, self.dim))
        self.ent_emb = ad.Tensor(np.array(table.ent, dtype=np.float64),
                                 requires_grad=trainable)
        self.rel_emb = ad.Tensor(np.array(table.rel, dtype=np.float64),
                                 requires_grad=trainable)
        self.embeddings_trainable = trainable
        self.table_provenance = dict(table.metadata)

    def parameters(self):
        """The tensors the optimizer updates: all but a frozen table."""
        return [t for name, t in self.named_parameters().items()
                if self.embeddings_trainable or name not in ("ent_emb", "rel_emb")]

    def named_parameters(self):
        """Every stored tensor by checkpoint name, frozen tables included."""
        names = {"w_c": self.w_c, "b_c": self.b_c}
        names.update(self.cell.named())
        if self.ent_emb is not None:
            names["ent_emb"] = self.ent_emb
            names["rel_emb"] = self.rel_emb
        return names

    def _require_table(self):
        if self.ent_emb is None:
            raise ConfigError("no embedding table attached")

    # ------------------------------------------------------------------
    # neighbor encoder
    #
    # Methods taking ``rng`` apply dropout, drawing from it, exactly when it
    # is given (training); without it they are deterministic and draw nothing.

    def encode_entities(self, entity_ids, graph, rng=None):
        """Encode a batch of entities -> (B, d) tensor."""
        self._require_table()
        entity_ids = np.asarray(entity_ids, dtype=np.intp)
        if not self.use_neighbor_encoder:
            return ad.gather_rows(self.ent_emb, entity_ids)
        starts = graph.indptr[entity_ids]
        counts = graph.indptr[entity_ids + 1] - starts
        # CSR slot of each neighbor, entity by entity in batch order
        offsets = np.cumsum(counts) - counts
        slots = np.arange(counts.sum()) + np.repeat(starts - offsets, counts)
        x = ad.concat(ad.gather_rows(self.rel_emb, graph.rel[slots]),
                      ad.gather_rows(self.ent_emb, graph.ent[slots]))
        x = ad.dropout(x, self.dropout, rng)
        pooled = ad.segment_mean(x, counts, scale=self.use_scaling_factor)
        # mean_k(W x_k + b) = W mean_k(x_k) + b; a sum pool adds the bias count times
        weight = (counts > 0) if self.use_scaling_factor else counts
        bias = ad.mul(ad.Tensor(weight.astype(np.float64)[:, None]), self.b_c)
        return ad.tanh(ad.add(ad.matmul(pooled, self.w_c), bias))

    # ------------------------------------------------------------------
    # matching processor

    def match_scores(self, support, queries, query_gates=None):
        """Score each query row of (B, 2d) against the 1-D support vector.

        ``query_gates`` optionally holds ``queries @ W_x`` computed by the
        caller (evaluation sums per-entity halves of it). Returns
        ``(scores, n_zero)``: a (B,) tensor and the number of rows that scored
        -1 because a cosine operand had zero norm.
        """
        if support.ndim != 1 or support.shape[0] != 2 * self.dim:
            raise NumericError("support vector must have length %d" % (2 * self.dim))
        if not self.use_matching_processor:
            return ad.rowwise_cosine(queries, support)
        cell = self.cell
        if query_gates is None:
            query_gates = ad.matmul(queries, cell.W_x)
        side = ad.add(ad.matmul(ad.reshape(support, (1, 2 * self.dim)), cell.W_s), cell.b)
        fixed = ad.add(query_gates, side)
        # the state starts at zero: step 1 has no recurrent term
        h, c = None, None
        for _ in range(self.steps):
            z = fixed if h is None else ad.add(fixed, ad.matmul(h, cell.W_h))
            h_prime, c = ad.lstm_cell(z, c)
            h = ad.add(h_prime, queries)
        return ad.rowwise_cosine(h, support)

    def entity_gates(self, encoded):
        """Gate inputs of encoded entities as a query head and as a query tail.

        Returns two arrays, ``encoded @ W_x[:d]`` and ``encoded @ W_x[d:]``:
        the gate input of a pair is the head row of the first plus the tail
        row of the second. Without gradient; used by evaluation.
        """
        w_x = self.cell.W_x.data
        return encoded @ w_x[:self.dim], encoded @ w_x[self.dim:]

    def match_pairs(self, reference, heads, tails, graph, rng=None):
        """End-to-end: score (head, tail) query pairs against a reference pair.

        Every distinct entity of the reference and the queries is encoded
        once, in one call (one dropout draw), and all queries go through one
        :meth:`match_scores` call. Returns ``(scores, n_zero)`` as that does.
        """
        n = len(heads)
        ids, row = np.unique(np.concatenate([np.asarray(reference, dtype=np.intp),
                                             np.asarray(heads, dtype=np.intp),
                                             np.asarray(tails, dtype=np.intp)]),
                             return_inverse=True)
        encoded = self.encode_entities(ids, graph, rng=rng)
        support = ad.reshape(ad.gather_rows(encoded, row[:2]), (2 * self.dim,))
        queries = ad.concat(ad.gather_rows(encoded, row[2:2 + n]),
                            ad.gather_rows(encoded, row[2 + n:]))
        return self.match_scores(support, queries)

    def score_pairs(self, reference, heads, tails, graph, rng=None):
        """Scores of :meth:`match_pairs` alone, a (B,) tensor."""
        return self.match_pairs(reference, heads, tails, graph, rng=rng)[0]


def hinge_loss(score_pos, score_neg, gamma):
    """Sum over the batch of max(0, gamma + score_neg - score_pos)."""
    if gamma <= 0:
        raise ConfigError("hinge margin must be positive")
    return ad.sum_all(ad.relu(ad.add(ad.sub(score_neg, score_pos), gamma)))


# ---------------------------------------------------------------------------
# persistence


def save_matcher(path, matcher):
    arrays = {name: t.data for name, t in matcher.named_parameters().items()}
    meta = {
        "format_version": FORMAT_VERSION, "dim": matcher.dim,
        **{name: getattr(matcher, name) for name in SETTINGS},
        "embeddings_trainable": matcher.embeddings_trainable,
        "table_provenance": matcher.table_provenance,
    }
    ad.save_checkpoint(path, arrays, metadata=meta)


def load_matcher(path):
    arrays, meta = ad.load_checkpoint(path, format_version=FORMAT_VERSION)
    try:
        m = Matcher(int(meta["dim"]), **{name: meta[name] for name in SETTINGS})
        trainable = bool(meta["embeddings_trainable"])
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError("checkpoint %s: bad metadata: %s" % (path, exc))
    if not {"ent_emb", "rel_emb"} <= arrays.keys():
        raise DataError("checkpoint %s: no embedding table (ent_emb and rel_emb)" % path)
    m.ent_emb = ad.Tensor(arrays["ent_emb"], requires_grad=trainable)
    m.rel_emb = ad.Tensor(arrays["rel_emb"], requires_grad=trainable)
    m.embeddings_trainable = trainable
    m.table_provenance = meta.get("table_provenance", {})
    assign_arrays({name: t.data for name, t in m.named_parameters().items()}, arrays, path)
    return m


def assign_arrays(targets, arrays, path):
    """Copy each of ``arrays`` into the target array of the same name; every
    target must be present in ``arrays`` with its shape. A target that is
    the loaded array itself (a table :func:`load_matcher` installed) is not
    copied."""
    for name, target in targets.items():
        arr = arrays.get(name)
        if arr is None or arr.shape != target.shape:
            raise DataError("checkpoint %s: %s has shape %s, expected %s"
                            % (path, name, None if arr is None else arr.shape, target.shape))
        if arr is not target:
            target[...] = arr
