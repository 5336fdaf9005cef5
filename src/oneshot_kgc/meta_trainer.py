"""Episodic one-shot meta-training with validation-driven model selection.

Each episode samples one task relation's reference triple, a batch of
positive query triples and tail-polluted negatives, accumulates the hinge
losses and performs one optimizer step. Every ``eval_interval`` episodes the
validation tasks are ranked (dropout off) and the checkpoint with the best
Hits@10 is retained.

The episode stream is deterministic in (seed, step): task order per epoch and
per-episode sampling both derive from the master seed and the step counter,
so an interrupted run can resume from the last saved state with an identical
subsequent loss trace.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import substream
from .errors import NumericError
from .evaluator import evaluate_tasks, matcher_score_fn
from .graph_store import Triple
from .matcher import hinge_loss, save_matcher

log = logging.getLogger(__name__)


@dataclass
class Episode:
    relation: int
    reference: Triple
    positives: list        # (head, tail) pairs
    negatives: list        # (head, polluted tail) pairs


class _TaskEntry:
    __slots__ = ("relation", "triples", "candidate_pool", "true_tails")

    def __init__(self, task):
        self.relation = task.relation
        self.triples = task.all_triples()
        pool = set()
        for _, _, cands in task.queries:
            pool.update(cands)
        pool.add(task.reference.tail)
        self.candidate_pool = np.array(sorted(pool), dtype=np.intp)
        self.true_tails = {}
        for h, _, t in self.triples:
            self.true_tails.setdefault(h, set()).add(t)


class TaskPool:
    """Meta-training tasks with an access log (used to assert split hygiene)."""

    def __init__(self, tasks):
        self._entries = {t.relation: _TaskEntry(t) for t in tasks}
        self.accessed = set()

    @property
    def relations(self):
        return sorted(self._entries)

    def get(self, relation):
        self.accessed.add(relation)
        return self._entries[relation]


def sample_episode(entry, batch_size, rng):
    """One episode for a task entry; None when the task has < 2 triples."""
    triples = entry.triples
    if len(triples) < 2:
        log.warning("task relation %d has fewer than 2 triples; skipped", entry.relation)
        return None
    ref_idx = int(rng.integers(len(triples)))
    reference = triples[ref_idx]
    rest = [t for i, t in enumerate(triples) if i != ref_idx]
    take = min(batch_size, len(rest))
    picked = rng.choice(len(rest), size=take, replace=False)
    positives = [(rest[i].head, rest[i].tail) for i in picked]
    negatives = []
    for head, _ in positives:
        banned = entry.true_tails.get(head, set())
        pool = entry.candidate_pool[~np.isin(entry.candidate_pool,
                                             np.fromiter(banned, dtype=np.intp))]
        if pool.size == 0:
            pool = np.array([e for e in range(int(entry.candidate_pool.max()) + 1)
                             if e not in banned], dtype=np.intp)
        negatives.append((head, int(pool[int(rng.integers(pool.size))])))
    return Episode(entry.relation, reference, positives, negatives)


def _episode_rng(seed, step):
    return substream(seed, "episode-%d" % step)


def _epoch_order(seed, epoch, relations):
    order = list(relations)
    substream(seed, "epoch-order-%d" % epoch).shuffle(order)
    return order


def train(matcher, graph, train_tasks, valid_tasks, vocab, config,
          log_fn=None, checkpoint_path=None, resume=False):
    """Run meta-training; returns (best_hits10, best_step).

    The matcher is left holding the best-validation parameters. When
    ``checkpoint_path`` is given, the best model and a resumable state blob
    are written there.
    """
    pool = TaskPool(train_tasks)
    relations = pool.relations
    params = matcher.parameters()
    opt = ad.Adam(params, lr=config.lr,
                  schedule=ad.halving_schedule(config.lr_half_every))
    step = 0
    best_metric = -1.0
    best_step = -1
    evals_since_best = 0
    state_path = (checkpoint_path + ".state") if checkpoint_path else None

    names = _param_names(matcher)
    if resume and state_path and ad.checkpoint_exists(state_path):
        arrays, meta = ad.load_checkpoint(state_path)
        for name, p in names.items():
            p.data[...] = arrays[name]
        for i, p in enumerate(params):
            opt._m[i][...] = arrays["adam_m.%d" % i]
            opt._v[i][...] = arrays["adam_v.%d" % i]
        step = int(meta["step"])
        opt.t = int(meta["opt_t"])
        best_metric = float(meta["best_metric"])
        best_step = int(meta["best_step"])
        log.info("resumed from step %d", step)

    best_arrays = {name: p.data.copy() for name, p in names.items()}
    stop = False
    while not stop:
        epoch = step // len(relations)
        for relation in _epoch_order(config.seed, epoch, relations)[step % len(relations):]:
            rng = _episode_rng(config.seed, step)
            episode = sample_episode(pool.get(relation), config.batch_size, rng)
            step += 1
            if episode is None:
                continue
            loss_value = _episode_step(matcher, graph, episode, opt, config, rng)
            if not np.isfinite(loss_value):
                _dump_diagnostics(checkpoint_path, step, episode, loss_value)
                raise NumericError("non-finite loss at step %d (relation %s)"
                                   % (step, vocab.id2rel[episode.relation]))
            if log_fn:
                log_fn({"step": step, "relation": vocab.id2rel[episode.relation],
                        "loss": loss_value, "lr": opt.current_lr()})

            if step % config.eval_interval == 0:
                metrics = _validate(matcher, graph, valid_tasks, vocab)
                if log_fn:
                    log_fn({"step": step, **metrics})
                if metrics["hits10"] > best_metric:
                    best_metric = metrics["hits10"]
                    best_step = step
                    best_arrays = {name: p.data.copy() for name, p in names.items()}
                    evals_since_best = 0
                    if checkpoint_path:
                        save_matcher(checkpoint_path, matcher)
                else:
                    evals_since_best += 1
                if state_path:
                    _save_state(state_path, names, opt, step, best_metric, best_step)
                if evals_since_best >= config.patience:
                    stop = True
            if step >= config.max_episodes:
                stop = True
            if stop:
                break

    for name, p in names.items():
        p.data[...] = best_arrays[name]
    if checkpoint_path:
        save_matcher(checkpoint_path, matcher)
    return best_metric, best_step


def _param_names(matcher):
    names = {"w_c": matcher.w_c, "b_c": matcher.b_c}
    names.update(matcher.cell.named())
    if matcher.ent_emb is not None:
        names["ent_emb"] = matcher.ent_emb
        names["rel_emb"] = matcher.rel_emb
    return names


def _episode_step(matcher, graph, episode, opt, config, rng):
    s = matcher.pair_representation([episode.reference.head], [episode.reference.tail],
                                    graph, rng=rng)
    s = ad.reshape(s, (2 * matcher.dim,))
    pos_h = np.array([h for h, _ in episode.positives], dtype=np.intp)
    pos_t = np.array([t for _, t in episode.positives], dtype=np.intp)
    neg_t = np.array([t for _, t in episode.negatives], dtype=np.intp)
    q_pos = matcher.pair_representation(pos_h, pos_t, graph, rng=rng)
    q_neg = matcher.pair_representation(pos_h, neg_t, graph, rng=rng)
    pos_scores, _ = matcher.match_scores(s, q_pos)
    neg_scores, _ = matcher.match_scores(s, q_neg)
    loss = hinge_loss(pos_scores, neg_scores, config.margin)
    opt.zero_grad()
    ad.backward(loss)
    opt.step()
    return loss.item()


def _validate(matcher, graph, valid_tasks, vocab):
    return evaluate_tasks(valid_tasks, matcher_score_fn(matcher, graph), vocab).metrics()


def _save_state(state_path, names, opt, step, best_metric, best_step):
    arrays = {name: p.data for name, p in names.items()}
    for i in range(len(opt.params)):
        arrays["adam_m.%d" % i] = opt._m[i]
        arrays["adam_v.%d" % i] = opt._v[i]
    ad.save_checkpoint(state_path, arrays,
                       metadata={"step": step, "opt_t": opt.t,
                                 "best_metric": best_metric, "best_step": best_step})


def _dump_diagnostics(checkpoint_path, step, episode, loss_value):
    if not checkpoint_path:
        return
    payload = {"step": step, "relation": episode.relation, "loss": repr(loss_value),
               "reference": list(episode.reference),
               "positives": episode.positives, "negatives": episode.negatives}
    with open(checkpoint_path + ".diagnostic.json", "w") as fh:
        json.dump(payload, fh, indent=1)
