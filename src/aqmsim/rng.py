"""Named, reproducible random substreams derived from one master seed.

Each consumer of a run gets its own stream keyed by a string name, so
adding draws in one place never perturbs another. `stream(seed, name)` serves
`topology` (random access-link rates and delays), `fq-hash` (FQ-CoDel's flow
hash), `flow-starts` (random bulk start times) and `tuner` (epsilon-greedy
draws).
The forecaster's weight init and dropout masks, and synthetic traces, seed
their own generators from the model or trace seed instead.
"""
from __future__ import annotations

import hashlib

import numpy as np


def substream_seed(name: str) -> int:
    """Stable 64-bit digest of a stream name (independent of PYTHONHASHSEED)."""
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")


def stream(seed: int, name: str) -> np.random.Generator:
    """The independent numpy Generator named `name` under master seed `seed`."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), substream_seed(name)]))
