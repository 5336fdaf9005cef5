import tracemalloc

import numpy as np
import pytest
import reference

from oneshot_kgc import embeddings
from oneshot_kgc.embeddings import (EmbeddingTable, export_vectors, init_table,
                                    load_table, random_table, save_table,
                                    score, score_batch, score_candidates,
                                    train_embeddings)
from oneshot_kgc.errors import ConfigError, DataError, NumericError
from oneshot_kgc.graph_store import Triple


def table_from(model, ent, rel, dim):
    return EmbeddingTable(model, dim, np.asarray(ent, float), np.asarray(rel, float))


class TestScoring:
    def test_transe_exact_translation_scores_zero(self):
        t = table_from("TransE", [[1.0, 2.0], [0.5, -1.0], [1.5, 1.0]],
                       [[0.5, -1.0]], dim=2)
        assert score(t, 0, 0, 2) == pytest.approx(0.0, abs=1e-12)
        # off by (1,0) in the tail -> distance 1
        assert score(t, 0, 0, 1) == pytest.approx(-np.hypot(1.0, 2.0))

    def test_distmult_trilinear_product(self):
        # [1,2] * [1,1] * [3,-1] summed = 3 - 2 = 1
        t = table_from("DistMult", [[1.0, 2.0], [3.0, -1.0]], [[1.0, 1.0]], dim=2)
        assert score(t, 0, 0, 1) == pytest.approx(1.0)

    def test_complex_with_zero_imaginary_reduces_to_distmult(self):
        rng = np.random.default_rng(0)
        hr, rr, tr = rng.normal(size=(3, 4))
        ent = np.zeros((2, 2, 4))
        rel = np.zeros((1, 2, 4))
        ent[0, 0], ent[1, 0], rel[0, 0] = hr, tr, rr
        t = EmbeddingTable("ComplEx", 8, ent, rel)
        assert score(t, 0, 0, 1) == pytest.approx(float(np.sum(hr * rr * tr)))

    def test_complex_conjugate_asymmetry(self):
        rng = np.random.default_rng(1)
        t = EmbeddingTable("ComplEx", 8, rng.normal(size=(2, 2, 4)),
                           rng.normal(size=(1, 2, 4)))
        assert score(t, 0, 0, 1) != pytest.approx(score(t, 1, 0, 0))

    def test_rescal_bilinear_form(self):
        # [1,0] . [[1,3],[5,7]] . [0,1] = 3
        t = table_from("RESCAL", [[1.0, 0.0], [0.0, 1.0]],
                       [[[1.0, 3.0], [5.0, 7.0]]], dim=2)
        assert score(t, 0, 0, 1) == pytest.approx(3.0)
        assert score(t, 1, 0, 0) == pytest.approx(5.0)

    def test_score_candidates_matches_batch(self):
        t = random_table(10, 3, 8, seed=2)
        cands = [0, 4, 7]
        got = score_candidates(t, 1, 2, cands)
        want = score_batch(t, [1, 1, 1], [2, 2, 2], cands)
        assert np.array_equal(got, want)


class TestInit:
    def test_complex_odd_dim_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            init_table("ComplEx", 4, 2, 7, np.random.default_rng(0))

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="model"):
            init_table("HolE", 4, 2, 8, np.random.default_rng(0))

    def test_random_table_deterministic(self):
        a = random_table(20, 4, 16, seed=5)
        b = random_table(20, 4, 16, seed=5)
        c = random_table(20, 4, 16, seed=6)
        assert np.array_equal(a.ent, b.ent)
        assert not np.array_equal(a.ent, c.ent)

    def test_random_table_mean_near_zero(self):
        t = random_table(500, 4, 32, seed=7)
        bound = np.sqrt(6.0 / 64)
        sigma = 2 * bound / np.sqrt(12)          # uniform std
        assert abs(t.ent.mean()) < 3 * sigma / np.sqrt(t.ent.size)


class TestTraining:
    def toy_triples(self):
        # two clusters wired through two relations
        triples = []
        for i in range(25):
            triples.append(Triple(i, 0, 25 + i % 5))
            triples.append(Triple(25 + i % 5, 1, 30 + i % 3))
        return triples, 33, 2

    @pytest.mark.parametrize("model", ["TransE", "DistMult", "ComplEx", "RESCAL"])
    def test_loss_decreases(self, model):
        triples, n_ent, n_rel = self.toy_triples()
        _, losses = train_embeddings(triples, n_ent, n_rel, model=model, dim=16,
                                     epochs=40, lr=0.05 if model != "RESCAL" else 0.01,
                                     seed=3)
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_transe_separates_positives_from_negatives(self):
        triples, n_ent, n_rel = self.toy_triples()
        table, _ = train_embeddings(triples, n_ent, n_rel, model="TransE", dim=16,
                                    epochs=150, lr=0.05, seed=4)
        rng = np.random.default_rng(4)
        wins = 0
        for h, r, t in triples:
            corrupt = int(rng.integers(n_ent))
            if score(table, h, r, t) > score(table, h, r, corrupt):
                wins += 1
        assert wins / len(triples) >= 0.9

    def test_transe_entities_stay_unit_norm(self):
        triples, n_ent, n_rel = self.toy_triples()
        table, _ = train_embeddings(triples, n_ent, n_rel, model="TransE", dim=16,
                                    epochs=10, lr=0.05, seed=5)
        norms = np.linalg.norm(table.ent, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_deterministic_under_seed(self):
        triples, n_ent, n_rel = self.toy_triples()
        a, _ = train_embeddings(triples, n_ent, n_rel, model="DistMult", dim=8,
                                epochs=5, seed=6)
        b, _ = train_embeddings(triples, n_ent, n_rel, model="DistMult", dim=8,
                                epochs=5, seed=6)
        assert np.array_equal(a.ent, b.ent)

    @pytest.mark.parametrize("model, lr", [("TransE", 1e308), ("DistMult", 1e100),
                                           ("ComplEx", 1e100), ("RESCAL", 1e3)])
    def test_diverged_run_is_numeric_error(self, model, lr):
        # DistMult and ComplEx reach a NaN loss; TransE's and RESCAL's tables
        # overflow while their losses stay finite
        triples, n_ent, n_rel = self.toy_triples()
        with pytest.raises(NumericError, match="%s training diverged: .* epoch" % model):
            train_embeddings(triples, n_ent, n_rel, model=model, dim=16, epochs=5,
                             lr=lr, seed=3)

    def test_empty_triples_rejected(self):
        with pytest.raises(DataError):
            train_embeddings([], 5, 2, epochs=1)


def assert_matches_reference_step(table, ref, pos, neg, k, lr, margin):
    """One step of the program and of the plain whole-batch reference agree:
    the loss within 1e-12 relative and the tables within 1e-12 absolute (the
    program folds and scales the gradient rows in another order)."""
    loss = embeddings._step_transe(table, pos, neg, k, lr, margin)
    assert loss > 0
    assert loss == pytest.approx(reference.step_transe(ref, pos, neg, k, lr, margin),
                                 rel=1e-12, abs=0)
    assert np.abs(table.ent - ref.ent).max() <= 1e-12
    assert np.abs(table.rel - ref.rel).max() <= 1e-12


class TestTransEStep:
    """The TransE step gives the reference step's tables up to rounding."""

    @pytest.mark.parametrize("row_shape", [(8,), (2, 4), (5, 5)],
                             ids=["2-D", "ComplEx-3-D", "RESCAL-3-D"])
    def test_scatter_add_matches_add_at(self, row_shape):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(30,) + row_shape)
        n = 2 * embeddings.SCATTER_CHUNK + 452      # two whole chunks and a part
        rows = rng.integers(6, size=n)              # every id repeats many times
        # magnitudes 1e-8..1e8, so any other summation order changes bits
        scale = 10.0 ** rng.integers(-8, 9, size=(n,) + (1,) * len(row_shape))
        values = rng.normal(size=(n,) + row_shape) * scale
        for subtract in (False, True):
            got, want = table.copy(), table.copy()
            np.add.at(want, rows, -values if subtract else values)
            embeddings._scatter_add(got, rows, values, subtract)
            assert np.array_equal(got, want)

    def test_step_memory_is_the_gradient_rows_plus_one_block(self):
        # NELL-shaped batch; margin 10 makes every negative active, so the
        # step keeps all B * (1 + k) gradient rows until its scatters
        B, d, k, n_ent = 16384, 100, 2, 20000
        rng = np.random.default_rng(3)
        table = init_table("TransE", n_ent, 50, d, rng)
        embeddings._renormalize_rows(table.ent)
        pos = np.stack([rng.integers(n_ent, size=B), rng.integers(50, size=B),
                        rng.integers(n_ent, size=B)], axis=1)
        neg = embeddings._sample_negatives(rng, pos, n_ent, "tail", k)
        tracemalloc.start()
        try:
            embeddings._step_transe(table, pos, neg, k, 0.01, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * B * (1 + k) * d * 8

    @pytest.mark.parametrize("mode", ["tail", "head", "both"])
    def test_step_matches_reference_step(self, monkeypatch, mode):
        # more rows than one renormalisation block; 600 positives make nine
        # whole step blocks and a part, and each scatter many chunks
        monkeypatch.setattr(embeddings, "TRANSE_BLOCK", 64)
        monkeypatch.setattr(embeddings, "SCATTER_CHUNK", 50)
        n_ent, n_rel = 2 * embeddings.RENORM_BLOCK + 123, 7
        rng = np.random.default_rng(1)
        table = init_table("TransE", n_ent, n_rel, 16, rng)
        embeddings._renormalize_rows(table.ent)
        ref = EmbeddingTable("TransE", 16, table.ent.copy(), table.rel.copy())
        for k in (1, 3, 3):
            pos = np.stack([rng.integers(40, size=600), rng.integers(n_rel, size=600),
                            rng.integers(40, size=600)], axis=1)
            neg = embeddings._sample_negatives(rng, pos, n_ent, mode, k)
            assert_matches_reference_step(table, ref, pos, neg, k, 0.05, 1.0)

    def test_mixed_batch_matches_reference_step(self, monkeypatch):
        # within one positive's negatives, some keep its head and relation
        # (folded into its update) and some move the head, the relation or
        # both (scattered on their own); 40 entities make rows repeat across
        # positives, negatives and blocks
        monkeypatch.setattr(embeddings, "TRANSE_BLOCK", 64)
        monkeypatch.setattr(embeddings, "SCATTER_CHUNK", 50)
        n_ent, n_rel, k, B = 40, 5, 4, 300
        rng = np.random.default_rng(2)
        table = init_table("TransE", n_ent, n_rel, 16, rng)
        embeddings._renormalize_rows(table.ent)
        ref = EmbeddingTable("TransE", 16, table.ent.copy(), table.rel.copy())
        pos = np.stack([rng.integers(n_ent, size=B), rng.integers(n_rel, size=B),
                        rng.integers(n_ent, size=B)], axis=1)
        neg = np.repeat(pos, k, axis=0)
        neg[:, 2] = rng.integers(n_ent, size=B * k)
        move = rng.integers(4, size=B * k)          # 0 kept, 1 head, 2 relation, 3 both
        neg[move % 2 == 1, 0] = rng.integers(n_ent, size=np.count_nonzero(move % 2 == 1))
        neg[move >= 2, 1] = rng.integers(n_rel, size=np.count_nonzero(move >= 2))
        moved = np.any(neg[:, :2] != np.repeat(pos[:, :2], k, axis=0), axis=1)
        per_positive = np.count_nonzero(moved.reshape(B, k), axis=1)
        assert np.any((per_positive > 0) & (per_positive < k))
        for _ in range(3):
            assert_matches_reference_step(table, ref, pos, neg, k, 0.05, 1.0)

    def test_same_seed_gives_the_same_bits(self, monkeypatch):
        monkeypatch.setattr(embeddings, "TRANSE_BLOCK", 64)
        rng = np.random.default_rng(4)
        triples = np.stack([rng.integers(500, size=900), rng.integers(9, size=900),
                            rng.integers(500, size=900)], axis=1)
        runs = [train_embeddings(triples, 500, 9, model="TransE", dim=16, epochs=3,
                                 corruption="both", batch_size=400, seed=11)
                for _ in range(2)]
        (a, loss_a), (b, loss_b) = runs
        assert loss_a == loss_b
        assert np.array_equal(a.ent, b.ent)
        assert np.array_equal(a.rel, b.rel)


class TestExport:
    def test_rescal_rowwise_mean(self):
        rel = np.array([[[1.0, 3.0], [5.0, 7.0]]])
        t = EmbeddingTable("RESCAL", 2, np.zeros((2, 2)), rel)
        out = export_vectors(t)
        assert out.rel.tolist() == [[2.0, 6.0]]
        assert out.metadata["rescal_pooling"] == "row-wise mean"

    def test_complex_real_then_imaginary(self):
        ent = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        t = EmbeddingTable("ComplEx", 4, ent, np.zeros((1, 2, 2)))
        out = export_vectors(t)
        assert out.ent.tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_distmult_identity(self):
        t = random_table(6, 2, 8, seed=8)
        t.model = "DistMult"
        out = export_vectors(t)
        assert np.array_equal(out.ent, t.ent)
        assert np.array_equal(out.rel, t.rel)
        assert out.metadata["exported_from"] == "DistMult"


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        table, _ = train_embeddings([Triple(0, 0, 1), Triple(1, 0, 2)], 3, 1,
                                    model="ComplEx", dim=8, epochs=3, seed=9)
        path = str(tmp_path / "table")
        save_table(path, table)
        loaded = load_table(path)
        assert loaded.model == "ComplEx"
        assert loaded.dim == 8
        assert np.array_equal(loaded.ent, table.ent)
        assert np.array_equal(loaded.rel, table.rel)
