import json
import tracemalloc

import numpy as np
import pytest
import reference

from oneshot_kgc import autodiff as ad
from oneshot_kgc import meta_trainer
from oneshot_kgc.config import RunConfig
from oneshot_kgc.dataset import TaskSet
from oneshot_kgc.embeddings import random_table
from oneshot_kgc.errors import DataError
from oneshot_kgc.graph_store import Triple, build_neighbor_index
from oneshot_kgc.matcher import Matcher, hinge_loss
from oneshot_kgc.meta_trainer import TaskPool, sample_episode, train


def toy_task(relation=0, n_queries=8, n_cands=12, seed=0):
    rng = np.random.default_rng(seed)
    reference = Triple(0, relation, 1)
    queries = []
    for i in range(n_queries):
        head, truth = 2 + 2 * i, 3 + 2 * i
        cands = sorted(set(rng.integers(2, 2 + 2 * n_queries + n_cands,
                                        size=n_cands).tolist()) | {truth})
        queries.append((head, truth, cands))
    return TaskSet(relation, reference, queries)


class TestSampleEpisode:
    def entry(self, **kw):
        return TaskPool([toy_task(**kw)]).get(kw.get("relation", 0))

    def test_invariants(self):
        entry = self.entry()
        rng = np.random.default_rng(0)
        for _ in range(50):
            ep = sample_episode(entry, 4, rng)
            ref = (ep.reference.head, ep.reference.tail)
            assert ref not in ep.positives
            assert len(ep.positives) == 4
            assert len(ep.negatives) == 4
            for (ph, pt), (nh, nt) in zip(ep.positives, ep.negatives):
                assert ph == nh
                # negative tail is polluted: never a known true tail of the head
                assert nt not in entry.true_tails.get(nh, set())
                assert nt in entry.candidate_pool

    def test_batch_larger_than_task_takes_all_remaining(self):
        entry = self.entry(n_queries=3)
        ep = sample_episode(entry, 128, np.random.default_rng(1))
        assert len(ep.positives) == 3   # 4 triples minus the reference

    def test_single_triple_task_skipped(self):
        task = TaskSet(0, Triple(0, 0, 1), [])
        entry = TaskPool([task]).get(0)
        assert sample_episode(entry, 4, np.random.default_rng(2)) is None

    def test_deterministic_under_rng_state(self):
        entry = self.entry()
        a = sample_episode(entry, 4, np.random.default_rng(3))
        b = sample_episode(entry, 4, np.random.default_rng(3))
        assert a == b


def crowded_task(seed):
    """A task whose heads repeat, so most have several true tails, and whose
    queries sometimes leave their truth out of the candidates, so some true
    tails lie outside the pool."""
    rng = np.random.default_rng(seed)
    n_heads, n_ent = int(rng.integers(1, 6)), int(rng.integers(8, 30))
    heads = rng.integers(n_heads, size=int(rng.integers(2, 20)))
    tails = rng.integers(n_ent, size=heads.size)
    queries = []
    for h, t in zip(heads[1:].tolist(), tails[1:].tolist()):
        cands = set(rng.integers(n_ent, size=int(rng.integers(1, 12))).tolist())
        if rng.random() < 0.8:
            cands.add(t)
        queries.append((h, t, sorted(cands)))
    return TaskSet(0, Triple(int(heads[0]), 0, int(tails[0])), queries)


class TestSampleEpisodeAgainstReference:
    """The skip-table sampler draws exactly what the np.isin filter drew."""

    def assert_same_draws(self, entry, seed, batch_size):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert sample_episode(entry, batch_size, rng) == \
                reference.sample_episode(entry, batch_size, ref_rng)
        assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)

    @pytest.mark.parametrize("seed", range(40))
    def test_crowded_tasks(self, seed):
        entry = TaskPool([crowded_task(seed)]).get(0)
        if seed == 0:
            pool = set(entry.candidate_pool.tolist())
            assert any(not tails <= pool for tails in entry.true_tails.values())
        self.assert_same_draws(entry, seed, batch_size=int(seed % 7) + 1)

    def test_every_candidate_banned_falls_back_to_all_other_entities(self):
        # head 0's true tails 1 and 3 are the whole pool
        task = TaskSet(0, Triple(0, 0, 1), [(0, 3, [1, 3]), (2, 1, [1])])
        entry = TaskPool([task]).get(0)
        for seed in range(20):
            self.assert_same_draws(entry, seed, batch_size=2)
        ep = sample_episode(entry, 2, np.random.default_rng(0))
        for head, tail in ep.negatives:
            assert tail not in entry.true_tails[head]


class TestTaskPool:
    def test_access_log(self):
        pool = TaskPool([toy_task(relation=r) for r in (0, 1, 2)])
        pool.get(1)
        assert pool.accessed == {1}
        assert pool.relations == [0, 1, 2]


def small_config(**kw):
    base = dict(dim=8, hidden=16, batch_size=4, eval_interval=5, max_episodes=15,
                patience=100, dropout=0.0, seed=5)
    base.update(kw)
    return RunConfig(**base)


class TrainHarness:
    """Tiny 3-task training setup shared across the trainer tests."""

    def __init__(self, workdir, seed=5):
        self.workdir = workdir
        self.config = small_config(seed=seed)
        self.train_tasks = [toy_task(relation=r, seed=r) for r in (0, 1, 2)]
        self.valid_tasks = [toy_task(relation=3, seed=3)]
        n_ent = 64

        class _V:
            id2rel = ["r%d" % i for i in range(4)]
            id2ent = ["e%d" % i for i in range(n_ent)]
            n_entities = n_ent
            n_relations = 4

        self.vocab = _V()
        background = [Triple(e, e % 4, (e + 1) % n_ent) for e in range(n_ent)]
        self.graph = build_neighbor_index(background, n_ent, max_neighbors=50)

    def matcher(self, trainable=True, n_entities=64):
        m = Matcher(8, steps=2, dropout=0.0, seed=9)
        m.attach_table(random_table(n_entities, 4, 8, seed=9), trainable=trainable)
        return m

    def run(self, log_fn=None, checkpoint_path=None, resume=False, config=None, matcher=None):
        return train(matcher or self.matcher(), self.graph, self.train_tasks, self.valid_tasks,
                     self.vocab, config or self.config,
                     checkpoint_path=checkpoint_path or str(self.workdir / "matcher"),
                     log_fn=log_fn, resume=resume)


class TestTraining:
    def test_runs_and_logs(self, tmp_path):
        h = TrainHarness(tmp_path)
        records = []
        best, best_step = h.run(log_fn=records.append)
        loss_records = [r for r in records if "loss" in r]
        eval_records = [r for r in records if "hits10" in r]
        assert len(loss_records) == 15
        assert len(eval_records) == 3
        assert 0.0 <= best <= 1.0
        assert best_step in {r["step"] for r in eval_records}

    def test_loss_trace_bitwise_reproducible(self, tmp_path):
        h = TrainHarness(tmp_path)
        a, b = [], []
        h.run(log_fn=a.append)
        h.run(log_fn=b.append)
        assert [r.get("loss") for r in a] == [r.get("loss") for r in b]

    def test_only_meta_train_tasks_sampled(self, tmp_path):
        h = TrainHarness(tmp_path)
        pool_holder = {}
        orig = meta_trainer.TaskPool

        def spy(tasks):
            pool_holder["pool"] = orig(tasks)
            return pool_holder["pool"]

        meta_trainer.TaskPool = spy
        try:
            h.run()
        finally:
            meta_trainer.TaskPool = orig
        assert pool_holder["pool"].accessed <= {0, 1, 2}

    def test_best_checkpoint_is_argmax_validation(self, tmp_path, monkeypatch):
        h = TrainHarness(tmp_path)
        scripted = iter([0.1, 0.3, 0.2])

        def fake_validate(matcher, graph, valid_tasks, vocab):
            v = next(scripted)
            return {"mrr": v, "hits1": v, "hits5": v, "hits10": v}

        monkeypatch.setattr(meta_trainer, "_validate", fake_validate)
        best, best_step = h.run()
        assert best == 0.3
        assert best_step == 10

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        h = TrainHarness(tmp_path)
        full = []
        h.run(log_fn=full.append, checkpoint_path=str(tmp_path / "full"))

        part = []
        ckpt = str(tmp_path / "part")
        h.run(log_fn=part.append, checkpoint_path=ckpt,
              config=small_config(seed=5, max_episodes=10))
        h.run(log_fn=part.append, checkpoint_path=ckpt, resume=True,
              config=small_config(seed=5, max_episodes=15))
        full_losses = [(r["step"], r["loss"]) for r in full if "loss" in r]
        part_losses = [(r["step"], r["loss"]) for r in part if "loss" in r]
        assert part_losses == full_losses

    def test_run_without_validation_keeps_its_trained_weights(self, tmp_path):
        # max_episodes below eval_interval: no validation ever runs
        h = TrainHarness(tmp_path)
        m, fresh = h.matcher(), h.matcher()
        ckpt = str(tmp_path / "run")
        assert h.run(matcher=m, checkpoint_path=ckpt,
                     config=small_config(max_episodes=3)) == (-1.0, -1)
        assert not np.array_equal(m.w_c.data, fresh.w_c.data)
        saved = ad.load_checkpoint(ckpt)[0]
        for name, p in m.named_parameters().items():
            assert np.array_equal(saved[name], p.data), name

    def test_validation_equals_the_per_query_scorer(self, ds, graph, tmp_path, monkeypatch):
        # the synthetic valid split repeats heads, so the scorer matches each
        # distinct (head, candidate) pair once; the per-query loop must log
        # the same records and pick the same best step
        def run():
            matcher = Matcher(8, steps=2, dropout=0.0, seed=9)
            matcher.attach_table(random_table(ds.vocab.n_entities, ds.vocab.n_relations, 8,
                                              seed=9))
            records = []
            best = train(matcher, graph, ds.tasks_for("train"), ds.tasks_for("valid"),
                         ds.vocab, small_config(max_episodes=10),
                         checkpoint_path=str(tmp_path / "matcher"), log_fn=records.append)
            return records, best

        records, best = run()
        monkeypatch.setattr(meta_trainer, "matcher_score_fn", reference.per_query_score_fn)
        assert run() == (records, best)
        assert len([r for r in records if "hits10" in r]) == 2

    def test_patience_stops_early(self, tmp_path, monkeypatch):
        h = TrainHarness(tmp_path)
        monkeypatch.setattr(meta_trainer, "_validate",
                            lambda *a: {"mrr": 0.0, "hits1": 0.0,
                                        "hits5": 0.0, "hits10": 0.0})
        records = []
        cfg = small_config(seed=5, max_episodes=10_000, patience=2, eval_interval=5)
        h.run(log_fn=records.append, config=cfg)
        steps = [r["step"] for r in records if "loss" in r]
        # first eval sets the best (0.0 > -1), then two non-improving evals
        assert max(steps) == 15

    def test_no_train_tasks_is_data_error(self, tmp_path):
        h = TrainHarness(tmp_path)
        h.train_tasks = []
        with pytest.raises(DataError, match="no meta-train task relations"):
            h.run()

    @pytest.mark.parametrize("valid_tasks", [[], [TaskSet(3, Triple(0, 3, 1), [])]],
                             ids=["no-relations", "no-queries"])
    def test_empty_valid_split_is_refused_before_the_first_episode(self, tmp_path,
                                                                    valid_tasks):
        h = TrainHarness(tmp_path)
        h.valid_tasks = valid_tasks
        records = []
        with pytest.raises(DataError, match="meta-valid split holds no queries"):
            h.run(log_fn=records.append, checkpoint_path=str(tmp_path / "matcher"))
        assert records == [] and list(tmp_path.iterdir()) == []
        # a run that never validates needs no meta-valid queries
        h.run(log_fn=records.append, config=small_config(eval_interval=20))
        assert [r["step"] for r in records] == list(range(1, 16))

    def test_validation_runs_when_the_episode_is_skipped(self, tmp_path, monkeypatch):
        # sample_episode finds no episode at every fifth step, the steps that
        # validate and the step that ends the run
        h = TrainHarness(tmp_path)
        sampled = []

        def every_fifth_skipped(entry, batch_size, rng):
            sampled.append(entry.relation)
            assert len(sampled) <= 15, "training ran past max_episodes"
            if len(sampled) % 5 == 0:
                return None
            return sample_episode(entry, batch_size, rng)

        monkeypatch.setattr(meta_trainer, "sample_episode", every_fifth_skipped)
        records = []
        h.run(log_fn=records.append)
        assert [r["step"] for r in records if "hits10" in r] == [5, 10, 15]
        assert [r["step"] for r in records if "loss" in r] == \
            [s for s in range(1, 16) if s % 5]


def scripted_validation(*scores):
    values = iter(scores)

    def validate(matcher, graph, valid_tasks, vocab):
        v = next(values)
        return {"mrr": v, "hits1": v, "hits5": v, "hits10": v}
    return validate


class TestBestParameters:
    """The best checkpoint is the only copy of the best parameters."""

    @pytest.mark.parametrize("trainable, bound", [(True, 0.5), (False, 0.1)],
                             ids=["trainable", "frozen"])
    def test_training_holds_no_copy_of_the_parameters(self, tmp_path, trainable, bound):
        # a table large enough that a table-sized allocation would set the
        # peak: Adam's moments hold the touched rows only, and the state
        # write and the read-back of the best checkpoint copy no parameter
        h = TrainHarness(tmp_path)
        m = h.matcher(trainable, n_entities=200_000)
        stored = sum(p.data.nbytes for p in m.named_parameters().values())
        tracemalloc.start()
        try:
            assert h.run(matcher=m)[1] >= 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * stored, peak / stored

    def test_matcher_ends_with_the_best_checkpoint(self, tmp_path, monkeypatch):
        # best at step 5; the state holds the parameters of step 15
        h = TrainHarness(tmp_path)
        m = h.matcher()
        monkeypatch.setattr(meta_trainer, "_validate", scripted_validation(0.5, 0.1, 0.1))
        assert h.run(matcher=m) == (0.5, 5)
        best = ad.load_checkpoint(str(tmp_path / "matcher"))[0]
        state = ad.load_checkpoint(str(tmp_path / "matcher.state"))[0]
        for name, p in m.named_parameters().items():
            assert np.array_equal(p.data, best[name]), name
        assert not np.array_equal(m.w_c.data, state["w_c"])


class TestResumeBest:
    def test_resumed_run_ends_with_the_best_checkpoint(self, tmp_path, monkeypatch):
        # best at step 5, state saved at step 10; the resumed run's one
        # validation (step 15) does not beat it
        h = TrainHarness(tmp_path)
        full, part = str(tmp_path / "full"), str(tmp_path / "part")
        monkeypatch.setattr(meta_trainer, "_validate", scripted_validation(0.5, 0.1, 0.1))
        assert h.run(checkpoint_path=full) == (0.5, 5)
        monkeypatch.setattr(meta_trainer, "_validate", scripted_validation(0.5, 0.1, 0.1))
        h.run(checkpoint_path=part, config=small_config(seed=5, max_episodes=10))
        monkeypatch.setattr(meta_trainer, "_validate", scripted_validation(0.5, 0.1, 0.1))
        assert h.run(checkpoint_path=part, resume=True,
                     config=small_config(seed=5, max_episodes=15)) == (0.5, 5)
        want, got = ad.load_checkpoint(full)[0], ad.load_checkpoint(part)[0]
        assert sorted(got) == sorted(want)
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    def test_resume_restores_the_patience_count(self, tmp_path, monkeypatch):
        # patience 2: the best is at step 5, and the validations at 10 and 15
        # do not beat it, so training stops at 15. The interrupted run saves
        # its state at step 10, one validation into the patience count.
        h = TrainHarness(tmp_path)
        cfg = small_config(seed=5, max_episodes=100, patience=2)
        full, part = [], []
        monkeypatch.setattr(meta_trainer, "_validate", scripted_validation(0.5, 0.1, 0.1))
        assert h.run(log_fn=full.append, checkpoint_path=str(tmp_path / "full"),
                     config=cfg) == (0.5, 5)
        ckpt = str(tmp_path / "part")
        monkeypatch.setattr(meta_trainer, "_validate", scripted_validation(0.5, 0.1))
        h.run(log_fn=part.append, checkpoint_path=ckpt,
              config=small_config(seed=5, max_episodes=10, patience=2))
        monkeypatch.setattr(meta_trainer, "_validate", scripted_validation(0.1, 0.1, 0.1))
        assert h.run(log_fn=part.append, checkpoint_path=ckpt, resume=True,
                     config=cfg) == (0.5, 5)
        assert part == full
        assert full[-1]["step"] == 15
        # a run stopped on patience resumes as a no-op
        assert h.run(log_fn=part.append, checkpoint_path=ckpt, resume=True,
                     config=cfg) == (0.5, 5)
        assert part == full

    def test_resume_under_another_config_is_refused(self, tmp_path):
        h = TrainHarness(tmp_path)
        ckpt = str(tmp_path / "run")
        h.run(checkpoint_path=ckpt, config=small_config(seed=5, max_episodes=10))
        with pytest.raises(DataError, match=r"different config: dropout 0.0 != 0.1, lr "):
            h.run(checkpoint_path=ckpt, resume=True,
                  config=small_config(seed=5, max_episodes=15, lr=0.002, dropout=0.1))


EPISODE_FIELDS = {"step", "relation", "loss", "lr", "active_hinge", "zero_norm", "grad_norm"}
VALIDATION_FIELDS = {"step", "mrr", "hits1", "hits5", "hits10"}
GROUPS = {"w_c", "b_c", "lstm.W_x", "lstm.W_h", "lstm.W_s", "lstm.b"}


class TestEpisodeRecords:
    def test_record_schema(self, tmp_path):
        h = TrainHarness(tmp_path)
        for trainable, groups in ((True, GROUPS | {"ent_emb", "rel_emb"}), (False, GROUPS)):
            records = []
            h.run(log_fn=records.append, matcher=h.matcher(trainable))
            episodes = [r for r in records if "loss" in r]
            assert len(episodes) == 15
            assert all(set(r) == VALIDATION_FIELDS for r in records if "loss" not in r)
            for r in episodes:
                assert set(r) == EPISODE_FIELDS
                assert json.loads(json.dumps(r)) == r
                assert isinstance(r["relation"], str) and isinstance(r["zero_norm"], int)
                assert 0.0 <= r["active_hinge"] <= 1.0
                assert (r["active_hinge"] > 0) == (r["loss"] > 0)
                assert set(r["grad_norm"]) == groups
                assert all(isinstance(v, float) and v >= 0.0 for v in r["grad_norm"].values())
                assert (r["grad_norm"]["w_c"] > 0) == (r["loss"] > 0)

    def test_episode_encodes_once_and_matches_once(self, tmp_path, monkeypatch):
        h = TrainHarness(tmp_path)
        m = h.matcher()
        calls = []
        # (method, argument whose row count is checked): entity ids, query pairs
        for method, arg in (("encode_entities", 0), ("match_scores", 1)):
            original = getattr(Matcher, method)

            def spy(self, *args, _name=method, _arg=arg, _original=original, **kw):
                calls.append((_name, args[_arg].shape[0]))
                return _original(self, *args, **kw)
            monkeypatch.setattr(Matcher, method, spy)
        entry = TaskPool(h.train_tasks).get(0)
        episode = sample_episode(entry, 4, np.random.default_rng(0))
        opt = ad.Adam(m.parameters())
        meta_trainer._episode_step(m, h.graph, episode, opt, h.config, None)
        ref = episode.reference
        entities = {ref.head, ref.tail} | {e for pair in episode.positives + episode.negatives
                                           for e in pair}
        assert calls == [("encode_entities", len(entities)), ("match_scores", 8)]

    def test_one_pass_loss_equals_separate_positive_and_negative_passes(self, tmp_path):
        h = TrainHarness(tmp_path)
        m = h.matcher()
        entry = TaskPool(h.train_tasks).get(1)
        episode = sample_episode(entry, 4, np.random.default_rng(2))
        ref = (episode.reference.head, episode.reference.tail)
        heads = [p[0] for p in episode.positives]
        with ad.no_grad():
            pos = m.score_pairs(ref, heads, [p[1] for p in episode.positives], h.graph)
            neg = m.score_pairs(ref, heads, [n[1] for n in episode.negatives], h.graph)
            want = hinge_loss(pos, neg, h.config.margin).item()
        stats = meta_trainer._episode_step(m, h.graph, episode, ad.Adam(m.parameters()),
                                           h.config, None)
        assert stats["loss"] == pytest.approx(want, rel=1e-12)
