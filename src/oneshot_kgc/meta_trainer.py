"""Episodic one-shot meta-training with validation-driven model selection.

Each episode samples one task relation's reference triple, a batch of
positive query triples and tail-polluted negatives, accumulates the hinge
losses and performs one optimizer step. Every ``eval_interval`` episodes the
validation tasks are ranked (dropout off); the best Hits@10 model is kept only
in its checkpoint, which training reads back when it ends.

The episode stream is deterministic in (seed, step): task order per epoch and
per-episode sampling both derive from the master seed and the step counter,
so an interrupted run can resume from the last saved state with an identical
subsequent loss trace. The state records the run config, and a resume under
another config (``max_episodes`` aside) is refused. The patience count follows
from the state's step and best step, so a resumed run stops where an
uninterrupted one would.
"""

from __future__ import annotations

import bisect
import json
import logging
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .config import substream
from .errors import DataError, NumericError
from .evaluator import evaluate_tasks, matcher_score_fn
from .graph_store import Triple
from .matcher import FORMAT_VERSION, hinge_loss, save_matcher

log = logging.getLogger(__name__)


@dataclass
class Episode:
    relation: int
    reference: Triple
    positives: list        # (head, tail) pairs
    negatives: list        # (head, polluted tail) pairs


class _TaskEntry:
    __slots__ = ("relation", "triples", "candidate_pool", "true_tails", "skips")

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
        # per head, the pool positions of its true tails in ascending order,
        # the j-th minus j: the number of allowed candidates before it
        candidates = self.candidate_pool.tolist()
        self.skips = {}
        for h, tails in self.true_tails.items():
            skips = []
            for t in sorted(tails):
                at = bisect.bisect_left(candidates, t)
                if at < len(candidates) and candidates[at] == t:
                    skips.append(at - len(skips))
            self.skips[h] = skips


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
    pool = entry.candidate_pool
    negatives = []
    for head, _ in positives:
        skips = entry.skips[head]
        if len(skips) < pool.size:
            # the k-th candidate that is not a true tail of the head: the same
            # draw as picking entry k of the pool with those tails filtered out
            k = int(rng.integers(pool.size - len(skips)))
            tail = pool[k + bisect.bisect_right(skips, k)]
        else:
            banned = entry.true_tails[head]
            rest = np.array([e for e in range(int(pool.max()) + 1) if e not in banned],
                            dtype=np.intp)
            tail = rest[int(rng.integers(rest.size))]
        negatives.append((head, int(tail)))
    return Episode(entry.relation, reference, positives, negatives)


def _epoch_order(seed, epoch, relations):
    order = list(relations)
    substream(seed, "epoch-order-%d" % epoch).shuffle(order)
    return order


def check_valid_split(valid_tasks, config):
    """Refuse a run that would validate on a meta-valid split without queries."""
    if config.eval_interval <= config.max_episodes and not any(t.queries for t in valid_tasks):
        raise DataError("the meta-valid split holds no queries, but a validation runs every %d "
                        "episodes; build the dataset with meta-valid relations, or set "
                        "eval_interval above max_episodes" % config.eval_interval)


def train(matcher, graph, train_tasks, valid_tasks, vocab, config, checkpoint_path,
          log_fn=None, resume=False):
    """Run meta-training; returns (best_hits10, best_step).

    Training stops after ``max_episodes`` steps, or once ``patience``
    validations in a row have not improved on the best. Each improvement
    writes the model to ``checkpoint_path``, the only copy of the best
    parameters, and each validation a resumable state next to it. The
    matcher ends holding the parameters read back from there, or, when no
    validation ran, its trained ones, which are then saved there. The
    state holds the parameters and Adam's moments (of a table, those of the
    rows training touched). A resume and the final read-back read the
    parameters straight into the matcher's arrays; a resume refused for the
    state's metadata, index or shapes leaves them untouched.
    """
    pool = TaskPool(train_tasks)
    relations = pool.relations
    if not relations:
        raise DataError("no meta-train task relations to train on")
    check_valid_split(valid_tasks, config)
    # each parameter's array by checkpoint name; training updates them in place
    params = {name: p.data for name, p in matcher.named_parameters().items()}
    opt = ad.Adam(matcher.parameters(), lr=config.lr,
                  schedule=ad.halving_schedule(config.lr_half_every))
    step, best_metric, best_step = 0, -1.0, -1
    state_path = checkpoint_path + ".state"

    if resume and os.path.exists(state_path):
        meta = ad.read_checkpoint_index(state_path, format_version=FORMAT_VERSION)[1]
        _check_resumable(state_path, meta, config)
        arrays = ad.load_checkpoint(state_path, format_version=FORMAT_VERSION, into=params)[0]
        opt.load_state_arrays(arrays, state_path)
        step, opt.t, best_step = meta["step"], meta["opt_t"], meta["best_step"]
        best_metric = float(meta["best_metric"])
        log.info("resumed from step %d", step)
        if best_step >= 0:
            # the run ends by reading the best checkpoint back; refuse one
            # that cannot be read before training on
            ad.read_checkpoint_index(checkpoint_path, format_version=FORMAT_VERSION)

    # validations run at the multiples of eval_interval, best_step among them,
    # so the quotient counts those since the best (since the start before one)
    order = None
    while (step < config.max_episodes
           and (step - max(best_step, 0)) // config.eval_interval < config.patience):
        if order is None or step % len(relations) == 0:
            order = _epoch_order(config.seed, step // len(relations), relations)
        rng = substream(config.seed, "episode-%d" % step)
        episode = sample_episode(pool.get(order[step % len(relations)]),
                                 config.batch_size, rng)
        step += 1
        if episode is not None:
            stats = _episode_step(matcher, graph, episode, opt, config, rng)
            if not np.isfinite(stats["loss"]):
                _dump_diagnostics(checkpoint_path, step, episode, stats["loss"])
                raise NumericError("non-finite loss at step %d (relation %s)"
                                   % (step, vocab.id2rel[episode.relation]))
            if log_fn:
                log_fn({"step": step, "relation": vocab.id2rel[episode.relation],
                        "lr": opt.current_lr(), **stats})

        if step % config.eval_interval == 0:
            metrics = _validate(matcher, graph, valid_tasks, vocab)
            if log_fn:
                log_fn({"step": step, **metrics})
            if metrics["hits10"] > best_metric:
                best_metric, best_step = metrics["hits10"], step
                save_matcher(checkpoint_path, matcher)
            ad.save_checkpoint(state_path, {**params, **opt.state_arrays()},
                               metadata={"format_version": FORMAT_VERSION, "step": step,
                                         "opt_t": opt.t, "best_metric": best_metric,
                                         "best_step": best_step,
                                         "moment_layout": ad.MOMENT_LAYOUT,
                                         "config": _resumable_config(config)})

    if best_step >= 0:
        ad.load_checkpoint(checkpoint_path, format_version=FORMAT_VERSION, into=params)
    else:
        save_matcher(checkpoint_path, matcher)
    return best_metric, best_step


def resumed_step(checkpoint_path):
    """The step a resume from ``checkpoint_path`` starts at; None without a state."""
    state_path = checkpoint_path + ".state"
    if not os.path.exists(state_path):
        return None
    step = ad.read_checkpoint_index(state_path)[1].get("step")
    if type(step) is not int or step < 0:
        raise DataError("training state %s: step %r is not an integer >= 0" % (state_path, step))
    return step


def _episode_step(matcher, graph, episode, opt, config, rng):
    """One optimizer step on an episode; returns its log fields.

    The positives and negatives share their heads, so both are scored in one
    2B-row batch: positives first, then negatives.
    """
    heads = np.array([h for h, _ in episode.positives], dtype=np.intp)
    tails = np.array([t for _, t in episode.positives + episode.negatives], dtype=np.intp)
    b = heads.size
    scores, n_zero = matcher.match_pairs((episode.reference.head, episode.reference.tail),
                                         np.concatenate([heads, heads]), tails, graph,
                                         rng=rng)
    scores = ad.reshape(scores, (1, 2 * b))
    pos_scores, neg_scores = ad.columns(scores, 0, b), ad.columns(scores, b, 2 * b)
    loss = hinge_loss(pos_scores, neg_scores, config.margin)
    opt.zero_grad()
    ad.backward(loss)
    opt.step()
    hinge = (neg_scores.data - pos_scores.data) + config.margin
    return {"loss": loss.item(), "active_hinge": float(np.mean(hinge > 0)),
            "zero_norm": n_zero,
            "grad_norm": {name: p.grad_norm()
                          for name, p in matcher.named_parameters().items() if p.requires_grad}}


def _validate(matcher, graph, valid_tasks, vocab):
    return evaluate_tasks(valid_tasks, matcher_score_fn(matcher, graph), vocab).metrics()


def _resumable_config(config):
    """The config fields a resumed run must share with the run it resumes."""
    fields = asdict(config)
    del fields["max_episodes"]      # a resume may train for longer
    return fields


def _check_resumable(state_path, meta, config):
    for name, least in (("step", 0), ("opt_t", 0), ("best_step", -1)):
        if type(meta.get(name)) is not int or meta[name] < least:
            raise DataError("training state %s: %s %r is not an integer >= %d"
                            % (state_path, name, meta.get(name), least))
    if type(meta.get("best_metric")) not in (int, float) or not -1 <= meta["best_metric"] <= 1:
        raise DataError("training state %s: best_metric %r is not a number in [-1, 1]"
                        % (state_path, meta.get("best_metric")))
    if meta.get("moment_layout") != ad.MOMENT_LAYOUT:
        raise DataError("training state %s records moment layout %r, not %r (the row-sparse "
                        "Adam moments); it cannot be resumed"
                        % (state_path, meta.get("moment_layout"), ad.MOMENT_LAYOUT))
    saved, current = meta.get("config"), _resumable_config(config)
    if not isinstance(saved, dict):
        raise DataError("training state %s records no run config; it cannot be resumed"
                        % state_path)
    differing = sorted(k for k in set(saved) | set(current) if saved.get(k) != current.get(k))
    if differing:
        raise DataError("training state %s was saved under a different config: %s"
                        % (state_path, ", ".join("%s %r != %r" % (k, saved.get(k), current.get(k))
                                                 for k in differing)))


def _dump_diagnostics(checkpoint_path, step, episode, loss_value):
    payload = {"step": step, "relation": episode.relation, "loss": repr(loss_value),
               "reference": list(episode.reference),
               "positives": episode.positives, "negatives": episode.negatives}
    with open(checkpoint_path + ".diagnostic.json", "w") as fh:
        json.dump(payload, fh, indent=1)
