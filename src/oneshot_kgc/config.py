"""Run configuration: hyperparameter defaults, key=value config files, seed streams.

Every field has a recorded default; a frozen copy of the effective config is
written into each output directory so runs can be reproduced bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


@dataclass
class RunConfig:
    # embedding layer
    dim: int = 100
    embedding_epochs: int = 1000
    embedding_lr: float = 0.01
    embedding_batch_size: int = 512
    negatives_per_positive: int = 2
    corruption_mode: str = "tail"
    margin_embed: float = 1.0
    l2_reg: float = 1e-4

    # matcher
    hidden: int | None = None    # LSTM state size: accepted only as 2*dim, its default
    steps: int = 2               # matching process steps
    dropout: float = 0.3
    max_neighbors: int = 50
    use_neighbor_encoder: bool = True
    use_matching_processor: bool = True
    use_scaling_factor: bool = True
    train_embeddings: bool = True

    # meta-training
    margin: float = 5.0
    lr: float = 0.001
    lr_half_every: int = 200000
    batch_size: int = 128
    max_episodes: int = 50000
    eval_interval: int = 1000
    patience: int = 10

    # reproducibility
    seed: int = 0

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError("%s must be finite, got %r" % (f.name, value))
        positive = ["dim", "embedding_epochs", "embedding_lr", "embedding_batch_size",
                    "margin_embed", "steps", "max_neighbors", "margin", "lr", "lr_half_every",
                    "batch_size", "max_episodes", "eval_interval", "patience",
                    "negatives_per_positive"]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError("%s must be positive, got %r" % (name, getattr(self, name)))
        if self.l2_reg < 0:
            raise ConfigError("l2_reg must be non-negative, got %r" % self.l2_reg)
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1), got %r" % self.dropout)
        if self.hidden is None:
            self.hidden = 2 * self.dim
        if self.hidden != 2 * self.dim:
            # the matcher's LSTM state has size 2*dim by construction
            raise ConfigError("hidden must equal 2*dim = %d, got %r" % (2 * self.dim, self.hidden))
        return self

    def to_file(self, path):
        with open(path, "w") as fh:
            for f in dataclasses.fields(self):
                fh.write("%s = %r\n" % (f.name, getattr(self, f.name)))

    @classmethod
    def from_file(cls, path):
        cfg = cls()
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError("%s:%d: expected 'key = value'" % (path, lineno))
                key, value = (part.strip() for part in line.split("=", 1))
                cfg.set_option(key, value)
        return cfg

    def set_option(self, key, value):
        if key not in {f.name for f in dataclasses.fields(self)}:
            raise ConfigError("unknown config option %r" % key)
        current = getattr(self, key)
        text = str(value).strip().strip("'\"")
        try:
            if isinstance(current, bool):
                parsed = _BOOLEANS[text.lower()]
            elif isinstance(current, int) or current is None:     # None: hidden left out
                parsed = int(text)
            elif isinstance(current, float):
                parsed = float(text)
            else:
                parsed = text
        except (KeyError, ValueError):
            raise ConfigError("config option %s: cannot parse %r" % (key, value)) from None
        setattr(self, key, parsed)
        return self


def substream(master_seed, name):
    """Named RNG substream derived from one master seed.

    Components (dataset, embedding, matcher, episodes, ...) each pull their own
    stream so they can be reproduced independently of each other.
    """
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(master_seed) & 0xFFFFFFFF, tag]))
