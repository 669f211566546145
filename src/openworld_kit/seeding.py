"""Deterministic seed derivation.

All randomness in a run funnels through one root seed. Subsystems derive
their own streams by hashing the root seed together with string labels, so
adding a new subsystem never perturbs the draws of an existing one.

Labels in use:
    ("world", attempt)                    prototype/world construction
    ("scene", split, index)               per-scene content
    ("batch", task_id, step)              training batch composition
    ("assign", task_id, step, class_id)   background negative subsampling
    ("assign-scene", class_id)            single-scene loss assignments (test oracles only)
    ("module", class_id)                  projector/anchor initialization
"""

import hashlib

import numpy as np


def derive_seed(root_seed: int, *labels) -> int:
    """Hash a root seed and labels into a 64-bit stream seed."""
    token = "|".join([str(int(root_seed))] + [str(lab) for lab in labels])
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(root_seed: int, *labels) -> np.random.Generator:
    """Generator seeded from `derive_seed(root_seed, *labels)`."""
    return np.random.default_rng(derive_seed(root_seed, *labels))
