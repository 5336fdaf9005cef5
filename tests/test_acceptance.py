"""Acceptance gate: one test per release criterion, each printing an explicit
[PASS] line with the measured quantity once its assertions hold.

Covered criteria:
  C2  behavioral property suite (< 2 min)
  C3  end-to-end gradient check against central finite differences (< 30 s)
  C4  synthetic end-to-end training: meta-test Hits@1 >= 0.90, MRR >= 0.93
      within 5,000 episodes and 10 minutes, on a task family whose solvability
      is first proven by a brute-force signature oracle
  C5  relative ordering: full model beats the raw-embedding baseline and the
      fully ablated model by >= 0.05 MRR each
  C6  dataset-builder invariants plus byte-identical rebuild under fixed seed
  C7  conditional real-dataset load check (skipped unless NELL_ONE_DIR is set)

Full-scale benchmark reproduction is out of scope (external multi-million
triple dumps, thousand-epoch pre-training); these scaled checks stand in
for it.
"""

import dataclasses
import hashlib
import os
import time

import numpy as np
import pytest

from oneshot_kgc import autodiff as ad
from oneshot_kgc import synthetic
from oneshot_kgc.cli import _baseline_triples
from oneshot_kgc.config import RunConfig
from oneshot_kgc.dataset import (build_dataset, load_dataset,
                                 select_task_relations)
from oneshot_kgc.embeddings import (export_vectors, random_table,
                                    train_embeddings)
from oneshot_kgc.evaluator import (compute_metrics, embedding_score_fn,
                                   evaluate_tasks, matcher_score_fn,
                                   rank_from_scores)
from oneshot_kgc.graph_store import load_triples
from oneshot_kgc.matcher import Matcher, hinge_loss
from oneshot_kgc.meta_trainer import train
from reference import encode_one, graph_from_lists


# ---------------------------------------------------------------------------
# criterion 2: behavioral property suite


class TestC2Properties:
    def test_property_suite(self):
        t0 = time.monotonic()
        self._permutation_invariance()
        self._duplication_invariance()
        self._score_bounds()
        self._zero_cell_reduces_to_cosine()
        self._hinge_properties()
        self._rank_oracle()
        self._metric_arithmetic()
        self._monotone_invariance()
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0
        print("[PASS] criterion 2: property suite complete in %.1f s (< 120 s)"
              % elapsed)

    @staticmethod
    def _matcher(dim=6, n_ent=40, n_rel=6, seed=0, **kw):
        m = Matcher(dim, dropout=0.0, seed=seed, **kw)
        m.attach_table(random_table(n_ent, n_rel, dim, seed=seed), trainable=False)
        return m

    @staticmethod
    def _graph(neighbors, n_ent):
        return graph_from_lists([list(neighbors.get(e, [])) for e in range(n_ent)], 50)

    def _permutation_invariance(self):
        m = self._matcher(seed=1)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(1, 12))
            nbrs = [(int(rng.integers(6)), int(rng.integers(1, 40))) for _ in range(k)]
            perm = [nbrs[i] for i in rng.permutation(k)]
            a = encode_one(m, 0, self._graph({0: nbrs}, 40))
            b = encode_one(m, 0, self._graph({0: perm}, 40))
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-9
        print("  [PASS] neighbor-encoder permutation invariance, 1000 cases,"
              " max deviation %.2e (<= 1e-9)" % worst)

    def _duplication_invariance(self):
        on = self._matcher(seed=2)
        off = self._matcher(seed=2, use_scaling_factor=False)
        nbrs = [(1, 11), (2, 12), (3, 13)]
        a = encode_one(on, 0, self._graph({0: nbrs}, 40))
        b = encode_one(on, 0, self._graph({0: nbrs * 4}, 40))
        assert np.max(np.abs(a - b)) <= 1e-9
        c = encode_one(off, 0, self._graph({0: nbrs}, 40))
        d = encode_one(off, 0, self._graph({0: nbrs * 4}, 40))
        assert not np.allclose(c, d)
        print("  [PASS] duplication invariance with scaling on;"
              " strict deviation with scaling off")

    def _score_bounds(self):
        rng = np.random.default_rng(3)
        m = Matcher(5, steps=3, seed=3)
        scores, _ = m.match_scores(ad.Tensor(rng.normal(size=10)),
                                   ad.Tensor(rng.normal(size=(200, 10))))
        scores = scores.data
        assert np.all(scores >= -1.0) and np.all(scores <= 1.0)
        print("  [PASS] match scores bounded in [-1, 1] (200 random queries)")

    def _zero_cell_reduces_to_cosine(self):
        m = Matcher(4, steps=3, seed=4)
        for t in m.cell.tensors():
            t.data[...] = 0.0
        rng = np.random.default_rng(4)
        s = rng.normal(size=8)
        q = rng.normal(size=(6, 8))
        got = m.match_scores(ad.Tensor(s), ad.Tensor(q))[0].data
        want = q @ s / (np.linalg.norm(q, axis=1) * np.linalg.norm(s))
        assert np.max(np.abs(got - want)) <= 1e-12
        print("  [PASS] zero-weight recurrent cell reduces match score to cosine")

    def _hinge_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pos = ad.Tensor(rng.normal(size=8))
            neg = ad.Tensor(rng.normal(size=8))
            assert hinge_loss(pos, neg, 5.0).item() >= 0.0
        sat = hinge_loss(ad.Tensor([7.0, 5.0]), ad.Tensor([1.0, 0.0]), 5.0)
        assert sat.item() == 0.0
        print("  [PASS] hinge loss nonnegative; zero when margin satisfied")

    def _rank_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(2, 13))
            scores = np.round(rng.normal(size=n), 1)
            truth = int(rng.integers(n))
            brute = 1 + sum(1 for i in range(n)
                            if i != truth and scores[i] >= scores[truth])
            assert rank_from_scores(scores, truth) == brute
        print("  [PASS] rank oracle equivalence, 500 queries with <= 12 candidates")

    def _metric_arithmetic(self):
        m = compute_metrics([1, 2, 4])
        assert abs(m["mrr"] - 0.5833333333333334) <= 1e-9
        print("  [PASS] MRR on ranks [1,2,4] = %.6f (0.583333 +/- 1e-9)" % m["mrr"])

    def _monotone_invariance(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=20)
        for truth in range(20):
            assert (rank_from_scores(scores, truth)
                    == rank_from_scores(5.0 * scores - 2.0, truth))
        print("  [PASS] ranks invariant under monotone score transforms")


# ---------------------------------------------------------------------------
# criterion 3: gradient check against central finite differences


class TestC3Gradients:
    DIM = 8
    N_ENT = 14
    N_REL = 5
    N_COORDS = 16        # seeded subsample for the larger parameter groups
    TOL = 1e-4

    GROUPS = {"w_c", "b_c", "ent_emb", "rel_emb",
              "lstm.W_x", "lstm.W_h", "lstm.W_s", "lstm.b"}
    OPS = {"segment_mean", "columns", "gather_rows", "matmul"}

    def _instance(self, seed):
        rng = np.random.default_rng(seed)
        # odd seeds pool by sum: the unscaled segment-mean path and count * bias
        m = Matcher(self.DIM, steps=2, dropout=0.0, seed=seed,
                    use_scaling_factor=seed % 2 == 0)
        m.attach_table(random_table(self.N_ENT, self.N_REL, self.DIM, seed=seed),
                       trainable=True)
        lists = [[(int(rng.integers(self.N_REL)), int(rng.integers(self.N_ENT)))
                  for _ in range(int(rng.integers(1, 4)))]
                 for _ in range(self.N_ENT)]
        graph = graph_from_lists(lists, 50)
        ref = (0, 1)
        heads, tails = [2, 3, 4], [5, 6, 7]

        def loss():
            return ad.sum_all(m.score_pairs(ref, heads, tails, graph))
        return m, loss, rng

    def test_gradients_match_finite_differences(self):
        t0 = time.monotonic()
        worst = 0.0
        for seed in range(20):
            m, loss, rng = self._instance(100 + seed)
            out = loss()
            assert self.OPS <= _graph_ops(out)
            ad.backward(out)
            groups = m.named_parameters()
            assert set(groups) == self.GROUPS
            for name, p in groups.items():
                grad = p.dense_grad()
                if name in ("ent_emb", "rel_emb"):
                    rows = np.where(np.abs(grad).sum(axis=1) > 0)[0]
                    assert rows.size > 0   # the forward pass must touch rows
                    coords = [(int(r), int(c)) for r in rows
                              for c in range(p.data.shape[1])]
                else:
                    coords = list(np.ndindex(p.data.shape))
                if len(coords) > self.N_COORDS:
                    picked = rng.choice(len(coords), size=self.N_COORDS,
                                        replace=False)
                    coords = [coords[i] for i in picked]
                for idx in coords:
                    orig = p.data[idx]
                    h = 1e-5
                    with ad.no_grad():
                        p.data[idx] = orig + h
                        hi = loss().item()
                        p.data[idx] = orig - h
                        lo = loss().item()
                    p.data[idx] = orig
                    num = (hi - lo) / (2 * h)
                    ana = grad[idx]
                    err = abs(num - ana) / max(abs(num), abs(ana), 1e-6)
                    worst = max(worst, err)
                    assert err < self.TOL, (seed, name, idx, num, ana)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        print("[PASS] criterion 3: d=8, K=2, 20 instances, all parameter groups,"
              " max relative error %.2e (< 1e-4) in %.1f s (< 30 s)"
              % (worst, elapsed))


def _graph_ops(out):
    """Names of the ops recorded in the graph behind ``out``."""
    ops, stack, seen = set(), [out], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.add(node._op)
            stack.extend(node._parents)
    return ops


# ---------------------------------------------------------------------------
# criteria 4 and 5: synthetic end-to-end training and relative ordering


@pytest.fixture(scope="session")
def trained_run(ds, graph, transe_table, tmp_path_factory):
    cfg = RunConfig(dim=32, hidden=64, batch_size=32, eval_interval=500,
                    max_episodes=3000, dropout=0.3, seed=0)
    matcher = Matcher(32, steps=cfg.steps, dropout=cfg.dropout, seed=cfg.seed)
    # training updates the table it adopts in place, so it adopts a copy of the shared one
    matcher.attach_table(dataclasses.replace(transe_table, ent=transe_table.ent.copy(),
                                             rel=transe_table.rel.copy()), trainable=True)
    t0 = time.monotonic()
    best, best_step = train(matcher, graph, ds.tasks_for("train"),
                            ds.tasks_for("valid"), ds.vocab, cfg,
                            checkpoint_path=str(tmp_path_factory.mktemp("c4") / "matcher"))
    return matcher, best, best_step, time.monotonic() - t0


def filtered_metrics(ds, score_fn):
    report = evaluate_tasks(ds.tasks_for("test"), score_fn, ds.vocab,
                            filter_known=True)
    return report.metrics()


class TestC4SyntheticEndToEnd:
    def test_trained_matcher_solves_meta_test(self, ds, graph, trained_run):
        # solvability proof: the brute-force signature oracle must be perfect
        oracle = filtered_metrics(ds, synthetic.oracle_score_fn(ds))
        assert oracle["hits1"] == 1.0 and oracle["mrr"] == 1.0

        matcher, _, best_step, seconds = trained_run
        m = filtered_metrics(ds, matcher_score_fn(matcher, graph))
        assert best_step <= 5000
        assert seconds < 600.0
        assert m["hits1"] >= 0.90
        assert m["mrr"] >= 0.93
        print("[PASS] criterion 4: oracle-verified tasks; meta-test Hits@1 %.3f"
              " (>= 0.90), MRR %.3f (>= 0.93) after %d episodes (<= 5000)"
              " in %.0f s (< 600 s)" % (m["hits1"], m["mrr"], best_step, seconds))


class TestC5RelativeOrdering:
    def test_full_model_beats_baseline_and_ablation(self, ds, graph, trained_run):
        matcher, _, _, _ = trained_run
        full = filtered_metrics(ds, matcher_score_fn(matcher, graph))

        baseline_table, _ = train_embeddings(
            _baseline_triples(ds), ds.vocab.n_entities, ds.vocab.n_relations,
            model="TransE", dim=32, epochs=60, lr=0.02, seed=1)
        baseline = filtered_metrics(ds, embedding_score_fn(baseline_table))

        ablated = Matcher(32, dropout=0.0, seed=0, use_neighbor_encoder=False,
                          use_matching_processor=False, use_scaling_factor=False)
        ablated.attach_table(train_embeddings(
            ds.background, ds.vocab.n_entities, ds.vocab.n_relations,
            model="TransE", dim=32, epochs=60, lr=0.02, seed=1)[0],
            trainable=False)
        no_parts = filtered_metrics(ds, matcher_score_fn(ablated, graph))

        assert full["mrr"] - baseline["mrr"] >= 0.05
        assert full["mrr"] - no_parts["mrr"] >= 0.05
        print("[PASS] criterion 5: full-model MRR %.3f beats raw-embedding"
              " baseline %.3f and fully ablated model %.3f by >= 0.05 each"
              % (full["mrr"], baseline["mrr"], no_parts["mrr"]))


# ---------------------------------------------------------------------------
# criterion 6: dataset-builder invariants and reproducible rebuild


class TestC6DatasetInvariants:
    def test_invariants_and_byte_identical_rebuild(self, ds, dump_path, tmp_path):
        raw, vocab = load_triples(dump_path)
        band_lo, band_hi = 50, 500

        counts = {}
        for rel in raw[:, 1].tolist():
            counts[rel] = counts.get(rel, 0) + 1
        for rel in ds.manifest.task_relations():
            assert band_lo < counts[rel] < band_hi
        for rel in ds.manifest.background:
            assert not band_lo < counts[rel] < band_hi

        buckets = (ds.manifest.meta_train, ds.manifest.meta_valid,
                   ds.manifest.meta_test)
        seen = [r for b in buckets for r in b]
        assert len(seen) == len(set(seen))
        assert set(seen).isdisjoint(ds.manifest.background)

        n_task = sum(1 + len(t.queries) for t in ds.tasks.values())
        assert len(ds.background) + n_task == len(raw)
        task_rels = set(ds.manifest.task_relations())
        assert all(r not in task_rels for r in ds.background[:, 1].tolist())

        def build(out):
            triples, voc = load_triples(dump_path)
            build_dataset(str(out), triples, voc, counts=(6, 2, 2), seed=3)
            digest = {}
            for base, _, files in os.walk(out):
                for name in files:
                    path = os.path.join(base, name)
                    with open(path, "rb") as fh:
                        digest[os.path.relpath(path, out)] = \
                            hashlib.sha256(fh.read()).hexdigest()
            return digest

        assert build(tmp_path / "a") == build(tmp_path / "b")
        print("[PASS] criterion 6: frequency band strict, splits disjoint,"
              " triples conserved (%d background + %d task = %d raw),"
              " byte-identical rebuild under seed 3"
              % (len(ds.background), n_task, len(raw)))


# ---------------------------------------------------------------------------
# criterion 7: conditional real-dataset load check


class TestC7RealDataset:
    @pytest.mark.skipif("NELL_ONE_DIR" not in os.environ,
                        reason="set NELL_ONE_DIR to the real dump to enable")
    def test_real_dump_statistics(self):
        root = os.environ["NELL_ONE_DIR"]
        triples, vocab = load_triples(os.path.join(root, "triples.tsv"))
        assert vocab.n_entities == 68545
        assert vocab.n_relations == 358
        assert len(triples) == 181109
        tasks = select_task_relations(triples, 50, 500)
        assert len(tasks) == 67
        print("[PASS] criterion 7: real dump loads with 68,545 entities,"
              " 358 relations, 181,109 triples, 67 task relations")
