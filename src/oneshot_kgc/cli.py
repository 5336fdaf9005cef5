"""Command-line entry point wiring the pipeline end to end.

Subcommands: generate-synthetic, build-dataset, train-embeddings,
train-matcher, evaluate. Exit codes: 0 success, 1 usage/config error,
2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import synthetic
from .config import RunConfig, substream
from .dataset import build_dataset, load_dataset
from .errors import ConfigError, DataError, NumericError, writing
from .evaluator import embedding_score_fn, evaluate_tasks, matcher_score_fn
from .graph_store import build_neighbor_index, load_triples
from .matcher import SETTINGS, Matcher, load_matcher
from .meta_trainer import check_valid_split, resumed_step, train
from .embeddings import (export_vectors, load_table, random_table, save_table,
                         train_embeddings)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_config_overrides(parser):
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a single config option (repeatable)")


def _resolve_config(args):
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for item in args.set:
        if "=" not in item:
            raise ConfigError("--set expects KEY=VALUE, got %r" % item)
        key, value = item.split("=", 1)
        cfg.set_option(key.strip(), value)
    return cfg.validate()


def _check_output_directory(path):
    """Refuse, before any work, an output file whose directory does not exist."""
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory):
        raise DataError("cannot write %s: no directory %s" % (path, directory))


def cmd_generate_synthetic(args):
    rows = synthetic.generate(seed=args.seed)
    with writing(args.out):
        synthetic.write_dump(args.out, rows)
    print("wrote %d triples to %s" % (len(rows), args.out))


def cmd_build_dataset(args):
    triples, vocab = load_triples(args.input)
    if args.type_sidecar:
        vocab.apply_type_sidecar(args.type_sidecar)
    counts = None
    if args.counts:
        try:
            counts = tuple(int(x) for x in args.counts.split(","))
        except ValueError:
            counts = ()
        if len(counts) != 3 or min(counts) < 0:
            raise ConfigError("--counts expects three comma-separated non-negative "
                              "integers, got %r" % args.counts)
    explicit = _read_explicit_split(args.explicit_split) if args.explicit_split else None
    with writing(args.out):
        manifest = build_dataset(args.out, triples, vocab, counts=counts,
                                 band=(args.band_lo, args.band_hi), seed=args.seed,
                                 candidate_floor=args.candidate_floor,
                                 explicit_split=explicit)
    print("dataset written to %s: %d/%d/%d task relations, %d background relations"
          % (args.out, len(manifest.meta_train), len(manifest.meta_valid),
             len(manifest.meta_test), len(manifest.background)))


def _read_explicit_split(path):
    """The meta_train, meta_valid and meta_test name lists of a JSON file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        return payload["meta_train"], payload["meta_valid"], payload["meta_test"]
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc.strerror)) from None
    except ValueError as exc:
        raise DataError("%s: not valid JSON: %s" % (path, exc)) from None
    except (KeyError, TypeError):
        raise DataError("%s: expected a JSON object holding meta_train, meta_valid and "
                        "meta_test" % path) from None


def _baseline_triples(ds):
    """Background plus all meta-train triples plus the one-shot reference of
    every validation/test relation (standard-baseline training regime), as
    an (N, 3) id array."""
    extra = []
    for rel in ds.manifest.meta_train:
        extra.extend(ds.tasks[rel].all_triples())
    for rel in ds.manifest.meta_valid + ds.manifest.meta_test:
        extra.append(ds.tasks[rel].reference)
    return np.concatenate([ds.background, np.array(extra, dtype=np.intp).reshape(-1, 3)])


def cmd_train_embeddings(args):
    cfg = _resolve_config(args)
    _check_output_directory(args.out)
    ds = load_dataset(args.dataset)
    if args.model == "random":
        table = random_table(ds.vocab.n_entities, ds.vocab.n_relations,
                             cfg.dim, seed=cfg.seed)
        table.metadata["regime"] = args.regime
        save_table(args.out, table)
        print("random table written to %s" % args.out)
        return
    triples = ds.background if args.regime == "matcher" else _baseline_triples(ds)
    table, losses = train_embeddings(
        triples, ds.vocab.n_entities, ds.vocab.n_relations, model=args.model,
        dim=cfg.dim, epochs=cfg.embedding_epochs, lr=cfg.embedding_lr,
        neg_ratio=cfg.negatives_per_positive, corruption=cfg.corruption_mode,
        margin=cfg.margin_embed, reg=cfg.l2_reg,
        batch_size=cfg.embedding_batch_size, seed=cfg.seed)
    table.metadata["regime"] = args.regime
    save_table(args.out, table)
    print("trained %s on %d triples (%d epochs, final mean loss %.4f) -> %s"
          % (args.model, len(triples), cfg.embedding_epochs, losses[-1], args.out))


def cmd_train_matcher(args):
    cfg = _resolve_config(args)
    ds = load_dataset(args.dataset)
    check_valid_split(ds.tasks_for("valid"), cfg)
    table = load_table(args.table)
    if cfg.dim != table.dim:
        raise ConfigError("dim %d differs from the table's dimension %d" % (cfg.dim, table.dim))
    graph = build_neighbor_index(ds.background, ds.vocab.n_entities,
                                 max_neighbors=cfg.max_neighbors)
    matcher = Matcher(table.dim, seed=cfg.seed, **{name: getattr(cfg, name) for name in SETTINGS})
    matcher.attach_table(export_vectors(table), trainable=cfg.train_embeddings)
    del table       # what the matcher did not adopt (RESCAL's relation matrices)
    with writing(args.out):
        os.makedirs(args.out, exist_ok=True)
        cfg.to_file(os.path.join(args.out, "run-config.txt"))
    log_path = os.path.join(args.out, "training-log.jsonl")
    checkpoint = os.path.join(args.out, "matcher")
    kept = _log_up_to_resumed_step(log_path, checkpoint) if args.resume else []
    log_fh = None

    def log_fn(record):
        # the log is rewritten at the first record, so a refused resume leaves it whole
        nonlocal log_fh
        if log_fh is None:
            log_fh = open(log_path, "w")
            log_fh.writelines(kept)
        log_fh.write(json.dumps(record, sort_keys=True) + "\n")

    try:
        best, best_step = train(matcher, graph, ds.tasks_for("train"),
                                ds.tasks_for("valid"), ds.vocab, cfg,
                                log_fn=log_fn, checkpoint_path=checkpoint,
                                resume=args.resume)
    finally:
        if log_fh is not None:
            log_fh.close()
    print("best validation Hits@10 %.4f at step %d; checkpoint at %s"
          % (best, best_step, checkpoint))


def _log_up_to_resumed_step(log_path, checkpoint):
    """Lines of an earlier run's training log at or before the step its
    saved state resumes from (none when there is no state to resume)."""
    step = resumed_step(checkpoint) if os.path.exists(log_path) else None
    if step is None:
        return []
    with open(log_path) as fh:
        lines = fh.readlines()
    try:
        return [line for line in lines if json.loads(line)["step"] <= step]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError("training log %s: unreadable record: %s" % (log_path, exc))


def _kshot_tasks(ds, bucket, shots, seed):
    """Frozen reference plus (shots-1) promoted queries as extra references."""
    tasks, refs = [], {}
    for task in ds.tasks_for(bucket):
        extra = min(shots - 1, max(0, len(task.queries) - 1))
        rng = substream(seed, "kshot-%d" % task.relation)
        picked = set(int(i) for i in
                     rng.choice(len(task.queries), size=extra, replace=False)) if extra else set()
        refs[task.relation] = [(task.reference.head, task.reference.tail)] + \
            [(task.queries[i][0], task.queries[i][1]) for i in sorted(picked)]
        remaining = [q for i, q in enumerate(task.queries) if i not in picked]
        trimmed = type(task)(task.relation, task.reference, remaining)
        tasks.append(trimmed)
    return tasks, refs


def cmd_evaluate(args):
    cfg = _resolve_config(args)
    if args.shots < 1:
        raise ConfigError("--shots must be at least 1, got %d" % args.shots)
    if args.shots > 1 and not args.checkpoint:
        # an embedding table ranks without references: N shots would report
        # the 1-shot ranking of fewer queries
        raise ConfigError("--shots %d needs --checkpoint: an embedding table ranks "
                          "without references" % args.shots)
    if args.out:
        _check_output_directory(args.out)
    ds = load_dataset(args.dataset)
    tasks, refs = _kshot_tasks(ds, args.split, args.shots, cfg.seed)
    if args.checkpoint:
        matcher = load_matcher(args.checkpoint)
        graph = build_neighbor_index(ds.background, ds.vocab.n_entities,
                                     max_neighbors=matcher.max_neighbors)
        score_fn = matcher_score_fn(matcher, graph,
                                    references_by_task=refs if args.shots > 1 else None)
    elif args.table:
        score_fn = embedding_score_fn(load_table(args.table))
    else:
        raise ConfigError("evaluate requires --checkpoint or --table")

    report = evaluate_tasks(tasks, score_fn, ds.vocab, filter_known=args.filter_known,
                            known_tasks=ds.tasks_for(args.split))

    print(report.to_text())
    if args.out:
        with writing(args.out), open(args.out, "w") as fh:
            fh.write(report.to_json())
        print("report written to %s" % args.out)


def build_parser():
    parser = _Parser(prog="oneshot-kgc",
                     description="One-shot KG link prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-synthetic", help="emit the planted-signature toy KG")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate_synthetic)

    p = sub.add_parser("build-dataset", help="split a raw dump into background + tasks")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--band-lo", type=int, default=50)
    p.add_argument("--band-hi", type=int, default=500)
    p.add_argument("--counts", help="train,valid,test task counts")
    p.add_argument("--explicit-split", help="JSON file with explicit relation lists")
    p.add_argument("--type-sidecar", help="entity -> type TSV override")
    p.add_argument("--candidate-floor", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train-embeddings", help="train a baseline embedding table")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True,
                   choices=["TransE", "DistMult", "ComplEx", "RESCAL", "random"])
    p.add_argument("--regime", choices=["matcher", "baseline"], default="matcher")
    p.add_argument("--out", required=True)
    _add_config_overrides(p)
    p.set_defaults(func=cmd_train_embeddings)

    p = sub.add_parser("train-matcher", help="meta-train the matching model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true")
    _add_config_overrides(p)
    p.set_defaults(func=cmd_train_matcher)

    p = sub.add_parser("evaluate", help="rank candidates and report MRR / Hits@K")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", help="matcher checkpoint file")
    p.add_argument("--table", help="embedding table file (baseline mode)")
    p.add_argument("--split", choices=["valid", "test"], default="test")
    p.add_argument("--shots", type=int, default=1)
    p.add_argument("--filter-known", action="store_true",
                   help="drop other known-true tails before ranking")
    # accepted for old command lines and ignored: evaluation is single-threaded
    p.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--out", help="write the JSON report here")
    _add_config_overrides(p)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except DataError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 2
    except NumericError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
