"""Matching model: permutation-invariant neighbor encoder plus a recurrent
multi-step matching processor scoring query entity pairs against a one-shot
reference pair.

The neighbor encoder maps an entity to tanh of the (scaled) mean of affine
transforms of its one-hop (relation, entity) embedding tuples. The matching
processor refines the query representation with an LSTM cell conditioned on
the reference and scores with cosine similarity after a fixed number of
steps. Ablation flags reduce either component to its trivial form.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError


class Matcher:
    """Holds all trainable tensors and the ablation switches."""

    def __init__(self, dim, steps=2, dropout=0.3, max_neighbors=50,
                 use_neighbor_encoder=True, use_matching_processor=True,
                 use_scaling_factor=True, hidden=None, seed=0):
        if steps < 1:
            raise ConfigError("process step count must be >= 1")
        if not 0.0 <= dropout < 1.0:
            raise ConfigError("dropout rate must be in [0, 1)")
        hidden = 2 * dim if hidden is None else hidden
        if hidden != 2 * dim:
            # the residual q-connection and the cosine against the reference
            # both force the recurrent state to live in the pair space
            raise ConfigError("hidden size must equal 2*dim (got %d, dim %d)" % (hidden, dim))
        self.dim = dim
        self.hidden = hidden
        self.steps = steps
        self.dropout = dropout
        self.max_neighbors = max_neighbors
        self.use_neighbor_encoder = use_neighbor_encoder
        self.use_matching_processor = use_matching_processor
        self.use_scaling_factor = use_scaling_factor

        rng = np.random.default_rng(seed)
        self.w_c = ad.Tensor(ad.glorot_uniform(rng, 2 * dim, dim), requires_grad=True)
        self.b_c = ad.Tensor(np.zeros(dim), requires_grad=True)
        # input = query pair (2d); recurrent input = hidden ++ reference (H + 2d)
        self.cell = ad.init_lstm(2 * dim, hidden + 2 * dim, hidden, rng)

        self.ent_emb = None
        self.rel_emb = None
        self.embeddings_trainable = True

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
        params = [self.w_c, self.b_c] + self.cell.tensors()
        if self.ent_emb is not None and self.embeddings_trainable:
            params += [self.ent_emb, self.rel_emb]
        return params

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
        rel_idx, ent_idx, counts = graph.padded_arrays()
        cap = graph.max_neighbors
        r_flat = rel_idx[entity_ids].ravel()
        e_flat = ent_idx[entity_ids].ravel()
        vr = ad.gather_rows(self.rel_emb, r_flat)
        ve = ad.gather_rows(self.ent_emb, e_flat)
        x = ad.concat(vr, ve)
        x = ad.dropout(x, self.dropout, rng, rng is not None)
        mask = ad.Tensor((r_flat >= 0).astype(np.float64)[:, None])
        affine = ad.mul(ad.add(ad.matmul(x, self.w_c), self.b_c), mask)
        pooled = ad.block_mean_rows(affine, cap, counts[entity_ids],
                                    scale=self.use_scaling_factor)
        return ad.tanh(pooled)

    def encode_neighbors(self, entity, graph):
        """Single-entity convenience wrapper -> 1-D d-vector."""
        out = self.encode_entities([entity], graph)
        return ad.reshape(out, (self.dim,))

    def pair_representation(self, heads, tails, graph, rng=None):
        """Concatenated neighbor encodings of (head, tail) pairs -> (B, 2d)."""
        h = self.encode_entities(heads, graph, rng=rng)
        t = self.encode_entities(tails, graph, rng=rng)
        return ad.concat(h, t)

    # ------------------------------------------------------------------
    # matching processor

    def match_scores(self, support, queries):
        """Score each query row of (B, 2d) against the 1-D support vector.

        Returns ``(scores, n_zero)``: a (B,) tensor and the number of rows
        that scored -1 because a cosine operand had zero norm.
        """
        if support.ndim != 1 or support.shape[0] != 2 * self.dim:
            raise NumericError("support vector must have length %d" % (2 * self.dim))
        if not self.use_matching_processor:
            return ad.rowwise_cosine(queries, support)
        batch = queries.shape[0]
        s_rows = ad.broadcast_rows(support, batch)
        h = ad.Tensor(np.zeros((batch, self.hidden)))
        c = ad.Tensor(np.zeros((batch, self.hidden)))
        for _ in range(self.steps):
            hin = ad.concat(h, s_rows)
            h_prime, c = ad.lstm_cell(queries, hin, c, self.cell)
            h = ad.add(h_prime, queries)
        return ad.rowwise_cosine(h, support)

    def score_pairs(self, reference, heads, tails, graph, rng=None):
        """End-to-end: encode reference pair and query pairs, return scores."""
        ref_h, ref_t = reference
        s = self.pair_representation([ref_h], [ref_t], graph, rng=rng)
        s = ad.reshape(s, (2 * self.dim,))
        q = self.pair_representation(heads, tails, graph, rng=rng)
        return self.match_scores(s, q)[0]


def hinge_loss(score_pos, score_neg, gamma):
    """Sum over the batch of max(0, gamma + score_neg - score_pos)."""
    if gamma <= 0:
        raise ConfigError("hinge margin must be positive")
    return ad.sum_all(ad.relu(ad.add(ad.sub(score_neg, score_pos), gamma)))


# ---------------------------------------------------------------------------
# persistence


def save_matcher(path, matcher):
    arrays = {"w_c": matcher.w_c.data, "b_c": matcher.b_c.data}
    arrays.update({k: v.data for k, v in matcher.cell.named().items()})
    if matcher.ent_emb is not None:
        arrays["ent_emb"] = matcher.ent_emb.data
        arrays["rel_emb"] = matcher.rel_emb.data
    meta = {
        "dim": matcher.dim, "hidden": matcher.hidden, "steps": matcher.steps,
        "dropout": matcher.dropout, "max_neighbors": matcher.max_neighbors,
        "use_neighbor_encoder": matcher.use_neighbor_encoder,
        "use_matching_processor": matcher.use_matching_processor,
        "use_scaling_factor": matcher.use_scaling_factor,
        "embeddings_trainable": matcher.embeddings_trainable,
        "table_provenance": getattr(matcher, "table_provenance", {}),
    }
    ad.save_checkpoint(path, arrays, metadata=meta)


def load_matcher(path):
    arrays, meta = ad.load_checkpoint(path)
    m = Matcher(int(meta["dim"]), steps=int(meta["steps"]), dropout=meta["dropout"],
                max_neighbors=int(meta["max_neighbors"]),
                use_neighbor_encoder=meta["use_neighbor_encoder"],
                use_matching_processor=meta["use_matching_processor"],
                use_scaling_factor=meta["use_scaling_factor"])
    m.w_c.data[...] = arrays["w_c"]
    m.b_c.data[...] = arrays["b_c"]
    for name, tensor in m.cell.named().items():
        tensor.data[...] = arrays[name]
    if "ent_emb" in arrays:
        m.ent_emb = ad.Tensor(arrays["ent_emb"], requires_grad=meta["embeddings_trainable"])
        m.rel_emb = ad.Tensor(arrays["rel_emb"], requires_grad=meta["embeddings_trainable"])
        m.embeddings_trainable = meta["embeddings_trainable"]
        m.table_provenance = meta.get("table_provenance", {})
    return m
