import math

import numpy as np
import pytest

from oneshot_kgc import autodiff as ad
from oneshot_kgc.embeddings import EmbeddingTable, random_table
from oneshot_kgc.errors import ConfigError
from oneshot_kgc.matcher import Matcher, hinge_loss, load_matcher, save_matcher
from reference import (encode_one, graph_from_lists, padded_encode,
                       unfactored_match_scores)


def make_matcher(dim, n_ent=10, n_rel=4, seed=0, **kw):
    m = Matcher(dim, seed=seed, **kw)
    m.attach_table(random_table(n_ent, n_rel, dim, seed=seed), trainable=False)
    return m


def graph_of(neighbors, n_ent, cap=50):
    return graph_from_lists([list(neighbors.get(e, [])) for e in range(n_ent)], cap)


class TestConstruction:
    def test_default_hidden(self):
        # the LSTM state has size 2*dim: (H, 4H) recurrent weights
        assert Matcher(8).cell.W_h.shape == (16, 64)

    def test_bad_steps_and_dropout(self):
        with pytest.raises(ConfigError):
            Matcher(4, steps=0)
        with pytest.raises(ConfigError):
            Matcher(4, dropout=1.0)

    def test_attach_table_adopts_the_arrays_it_can_train_in_place(self):
        table = random_table(10, 4, 3, seed=1)
        m = Matcher(3)
        m.attach_table(table)
        assert m.ent_emb.data is table.ent and m.rel_emb.data is table.rel
        # a read-only or non-contiguous array is copied
        ent, rel = np.asfortranarray(table.ent), table.rel.copy()
        rel.flags.writeable = False
        m.attach_table(EmbeddingTable("random", 3, ent, rel))
        for got, given in ((m.ent_emb.data, ent), (m.rel_emb.data, rel)):
            assert got is not given and np.array_equal(got, given)
            assert got.flags.c_contiguous and got.flags.writeable


class TestNeighborEncoder:
    def test_isolated_entity_encodes_to_zero(self):
        m = make_matcher(4)
        g = graph_of({}, 10)
        out = encode_one(m, 3, g)
        assert np.array_equal(out, np.zeros(4))

    def test_single_neighbor_scalar_oracle(self):
        # d=1, one neighbor: tanh(w . (vr ++ ve) + b); arranged to hit 0.35
        m = Matcher(1, seed=0)
        ent = np.array([[0.0], [2.0]])
        rel = np.array([[3.0]])
        m.attach_table(EmbeddingTable("random", 1, ent, rel), trainable=False)
        m.w_c.data[...] = [[0.1], [0.05]]      # 0.1*3 + 0.05*2 = 0.4
        m.b_c.data[...] = [-0.05]
        g = graph_of({0: [(0, 1)]}, 2)
        out = encode_one(m, 0, g)
        assert out[0] == pytest.approx(math.tanh(0.35), abs=1e-12)
        assert out[0] == pytest.approx(0.336376, abs=1e-6)

    def test_permutation_invariance(self):
        m = make_matcher(6, n_ent=30, n_rel=5, seed=1)
        nbrs = [(i % 5, 10 + i) for i in range(12)]
        a = encode_one(m, 0, graph_of({0: nbrs}, 30))
        b = encode_one(m, 0, graph_of({0: nbrs[::-1]}, 30))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_duplication_invariant_with_scaling(self):
        m = make_matcher(6, n_ent=30, n_rel=5, seed=2)
        nbrs = [(1, 11), (2, 12)]
        a = encode_one(m, 0, graph_of({0: nbrs}, 30))
        b = encode_one(m, 0, graph_of({0: nbrs * 3}, 30))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_duplication_changes_output_without_scaling(self):
        m = make_matcher(6, n_ent=30, n_rel=5, seed=2, use_scaling_factor=False)
        nbrs = [(1, 11), (2, 12)]
        a = encode_one(m, 0, graph_of({0: nbrs}, 30))
        b = encode_one(m, 0, graph_of({0: nbrs * 3}, 30))
        # sum pooling: tripling the multiset triples the pre-activation
        assert not np.allclose(a, b)

    def test_output_strictly_inside_unit_box(self):
        m = make_matcher(8, n_ent=40, n_rel=6, seed=3)
        g = graph_of({e: [(e % 6, (e * 7 + 1) % 40)] for e in range(40)}, 40)
        out = m.encode_entities(list(range(40)), g)
        assert np.all(out.data > -1.0) and np.all(out.data < 1.0)

    def test_encoder_ablation_returns_raw_embedding(self):
        m = make_matcher(4, seed=4, use_neighbor_encoder=False)
        g = graph_of({2: [(0, 1), (1, 3)]}, 10)
        out = encode_one(m, 2, g)
        assert np.array_equal(out, m.ent_emb.data[2])


class TestAgainstPaddedEncoder:
    """The CSR pool-then-project encoder against the padded reference."""

    CAP = 6

    def random_graph(self, rng, n_ent, n_rel):
        # every degree from 0 to the cap occurs, 1 and the cap included
        lists = [[(int(rng.integers(n_rel)), int(rng.integers(n_ent)))
                  for _ in range(e % (self.CAP + 1))] for e in range(n_ent)]
        rng.shuffle(lists)
        return graph_from_lists(lists, self.CAP)

    @pytest.mark.parametrize("scaling", [True, False])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_matches_within_1e12(self, scaling, dropout):
        rng = np.random.default_rng(21)
        for trial in range(5):
            m = make_matcher(5, n_ent=40, n_rel=4, seed=trial, dropout=dropout,
                             use_scaling_factor=scaling)
            g = self.random_graph(rng, 40, 4)
            ids = rng.permutation(40)[:25]
            assert {int(g.indptr[e + 1] - g.indptr[e]) for e in ids} >= {0, 1, self.CAP}
            got = m.encode_entities(ids, g).data
            assert np.max(np.abs(got - padded_encode(m, ids, g))) <= 1e-12
            # training mode draws the same dropout mask from the same stream
            got = m.encode_entities(ids, g, rng=np.random.default_rng(trial)).data
            want = padded_encode(m, ids, g, rng=np.random.default_rng(trial))
            assert np.max(np.abs(got - want)) <= 1e-12


class TestMatchingProcessor:
    def test_processor_ablation_is_plain_cosine(self):
        m = Matcher(3, use_matching_processor=False, seed=6)
        rng = np.random.default_rng(6)
        s = rng.normal(size=6)
        q = rng.normal(size=(4, 6))
        got = m.match_scores(ad.Tensor(s), ad.Tensor(q))[0].data
        want = q @ s / (np.linalg.norm(q, axis=1) * np.linalg.norm(s))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_zero_cell_reduces_to_query_cosine(self):
        m = Matcher(3, steps=4, seed=7)
        for t in m.cell.tensors():
            t.data[...] = 0.0
        rng = np.random.default_rng(7)
        s = rng.normal(size=6)
        q = rng.normal(size=(5, 6))
        got = m.match_scores(ad.Tensor(s), ad.Tensor(q))[0].data
        want = q @ s / (np.linalg.norm(q, axis=1) * np.linalg.norm(s))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_query_equal_support_zero_cell_scores_one(self):
        m = Matcher(4, seed=8)
        for t in m.cell.tensors():
            t.data[...] = 0.0
        s = np.arange(1.0, 9.0)
        got = m.match_scores(ad.Tensor(s), ad.Tensor(s[None, :]))[0].data
        assert got[0] == pytest.approx(1.0, abs=1e-12)

    def test_scores_bounded(self):
        m = Matcher(5, steps=3, seed=9)
        rng = np.random.default_rng(9)
        got, _ = m.match_scores(ad.Tensor(rng.normal(size=10)),
                                ad.Tensor(rng.normal(size=(20, 10))))
        got = got.data
        assert np.all(got >= -1.0) and np.all(got <= 1.0)

    def test_zero_norm_query_scores_minus_one_and_counts(self):
        m = Matcher(3, use_matching_processor=False, seed=10)
        s = np.ones(6)
        q = np.zeros((2, 6))
        q[1] = 1.0
        got, n_zero = m.match_scores(ad.Tensor(s), ad.Tensor(q))
        assert got.data[0] == -1.0
        assert got.data[1] == pytest.approx(1.0)
        assert n_zero == 1

    def test_more_steps_changes_scores(self):
        rng = np.random.default_rng(11)
        s = rng.normal(size=8)
        q = rng.normal(size=(3, 8))
        a = Matcher(4, steps=1, seed=11).match_scores(ad.Tensor(s), ad.Tensor(q))[0].data
        b = Matcher(4, steps=3, seed=11).match_scores(ad.Tensor(s), ad.Tensor(q))[0].data
        assert not np.allclose(a, b)


class TestAgainstUnfactoredProcessor:
    """The factored matching processor against the per-gate reference."""

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_matches_within_1e12(self, steps):
        rng = np.random.default_rng(30 + steps)
        m = Matcher(4, steps=steps, seed=steps)
        for t in m.cell.tensors():
            t.data[...] += rng.normal(scale=0.3, size=t.shape)
        s = rng.normal(size=8)
        q = rng.normal(size=(7, 8))
        got = m.match_scores(ad.Tensor(s), ad.Tensor(q))[0].data
        assert np.max(np.abs(got - unfactored_match_scores(m, s, q))) <= 1e-12

    def test_entity_gates_give_the_query_gates(self):
        rng = np.random.default_rng(33)
        m = Matcher(4, steps=2, seed=33)
        enc = rng.normal(size=(6, 4))
        heads, tails = np.array([0, 0, 2, 5]), np.array([1, 3, 3, 4])
        q = np.hstack([enc[heads], enc[tails]])
        head_gates, tail_gates = m.entity_gates(enc)
        s = ad.Tensor(rng.normal(size=8))
        got = m.match_scores(s, ad.Tensor(q), head_gates[heads] + tail_gates[tails])[0].data
        assert np.max(np.abs(got - unfactored_match_scores(m, s.data, q))) <= 1e-12


class TestEndToEnd:
    def test_score_pairs_shape_and_determinism(self):
        m = make_matcher(6, n_ent=30, n_rel=5, seed=12)
        g = graph_of({e: [(e % 5, (e + 1) % 30)] for e in range(30)}, 30)
        a = m.score_pairs((0, 1), [2, 3, 4], [5, 6, 7], g).data
        b = m.score_pairs((0, 1), [2, 3, 4], [5, 6, 7], g).data
        assert a.shape == (3,)
        assert np.array_equal(a, b)

    def test_full_ablation_is_raw_embedding_cosine(self):
        m = make_matcher(6, n_ent=30, n_rel=5, seed=13,
                         use_neighbor_encoder=False,
                         use_matching_processor=False,
                         use_scaling_factor=False)
        g = graph_of({}, 30)
        got = m.score_pairs((0, 1), [2], [3], g).data
        E = m.ent_emb.data
        s = np.concatenate([E[0], E[1]])
        q = np.concatenate([E[2], E[3]])
        want = q @ s / (np.linalg.norm(q) * np.linalg.norm(s))
        assert got[0] == pytest.approx(want, abs=1e-12)


class TestHingeLoss:
    def test_hand_computed_cases(self):
        pos = ad.Tensor([6.0, 0.0, 10.0])
        neg = ad.Tensor([0.0, 0.0, 2.0])
        # per-element: max(0, 5+0-6)=0, max(0, 5+0-0)=5, max(0, 5+2-10)=0
        assert hinge_loss(pos, neg, 5.0).item() == pytest.approx(5.0)

    def test_margin_exactly_met_is_zero(self):
        assert hinge_loss(ad.Tensor([5.0]), ad.Tensor([0.0]), 5.0).item() == 0.0

    def test_nonpositive_margin_rejected(self):
        with pytest.raises(ConfigError):
            hinge_loss(ad.Tensor([1.0]), ad.Tensor([0.0]), 0.0)

    def test_gradient_pushes_scores_apart(self):
        pos = ad.Tensor([0.0], requires_grad=True)
        neg = ad.Tensor([0.0], requires_grad=True)
        ad.backward(hinge_loss(pos, neg, 5.0))
        assert pos.grad[0] == -1.0
        assert neg.grad[0] == 1.0


class TestPersistence:
    def test_roundtrip_preserves_scores(self, tmp_path, ds, graph):
        m = Matcher(8, steps=2, dropout=0.3, seed=14)
        m.attach_table(random_table(ds.vocab.n_entities, ds.vocab.n_relations, 8,
                                    seed=14), trainable=True)
        path = str(tmp_path / "matcher")
        save_matcher(path, m)
        loaded = load_matcher(path)
        ref = (0, 1)
        a = m.score_pairs(ref, [2, 3], [4, 5], graph).data
        b = loaded.score_pairs(ref, [2, 3], [4, 5], graph).data
        assert np.array_equal(a, b)
        assert loaded.embeddings_trainable
        assert loaded.steps == 2
