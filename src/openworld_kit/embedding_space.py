"""Class-embedding registry and unit-hypersphere arithmetic.

The registry holds one embedding per known class, ordered by the task that
introduced it. Entries from finished tasks are frozen and never change
again. From known embeddings we derive the mean known direction, a
synthesized unknown-class prompt (the generic-object embedding pushed away
from the known mean), and the prompt matrix consumed by the detection head.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateMean, DuplicateClass, EmptyRegistry, MissingWorld,
                     ParseError, ZeroVector, read_json, write_json)

GENERIC_OBJECT_KEY = "object"

_EPS = 1e-12


def normalize(v: np.ndarray) -> np.ndarray:
    """Scale `v` to unit L2 norm. Raises ZeroVector below 1e-12."""
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n < _EPS:
        raise ZeroVector(f"cannot normalize vector with norm {n:.3e}")
    return v / n


@dataclass(frozen=True)
class ClassEntry:
    """One registered class: name, its embedding, owning task, frozen flag."""

    name: str
    embedding: np.ndarray
    task_id: int
    frozen: bool

    def __post_init__(self):
        emb = np.asarray(self.embedding, dtype=np.float64)
        if emb.ndim != 1 or emb.size < 2:
            raise ValueError(f"class {self.name!r}: embedding must be a vector of dim >= 2")
        if not np.all(np.isfinite(emb)):
            raise ValueError(f"class {self.name!r}: embedding has non-finite entries")
        object.__setattr__(self, "embedding", emb)


@dataclass(frozen=True)
class ClassEmbeddingRegistry:
    """Ordered per-task class embeddings, all of one dim.

    Immutable: `register_task` returns a new registry.
    """

    entries: tuple[ClassEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise DuplicateClass("class names must be unique")
        task_ids = [e.task_id for e in self.entries]
        if any(t < 1 for t in task_ids):
            raise ValueError("task ids start at 1")
        if any(b < a for a, b in zip(task_ids, task_ids[1:])):
            raise ValueError("task ids must be non-decreasing along the registry order")
        for e in self.entries[1:]:
            if e.embedding.shape != self.entries[0].embedding.shape:
                raise ValueError(f"class {e.name!r}: dim {e.embedding.size} != {self.dim}")

    @property
    def num_known(self) -> int:
        return len(self.entries)

    @property
    def dim(self) -> int:
        return int(self.entries[0].embedding.size)

    @property
    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    @property
    def current_task(self) -> int:
        return max((e.task_id for e in self.entries), default=0)

    def with_embeddings(self, embeddings: dict[str, np.ndarray]) -> "ClassEmbeddingRegistry":
        """Copy with the non-frozen entries' embeddings replaced."""
        new_entries = []
        for e in self.entries:
            if e.name in embeddings:
                if e.frozen:
                    raise ValueError(f"refusing to overwrite frozen embedding {e.name!r}")
                new_entries.append(replace(e, embedding=np.array(embeddings[e.name], dtype=np.float64)))
            else:
                new_entries.append(e)
        return replace(self, entries=tuple(new_entries))


def mean_known_embedding(known_rows) -> np.ndarray:
    """Mean of the normalized rows of `known_rows`. Generally not unit norm."""
    if len(known_rows) == 0:
        raise EmptyRegistry("mean of known embeddings needs at least one class")
    acc = np.zeros(len(known_rows[0]), dtype=np.float64)
    for row in known_rows:
        acc += normalize(row)
    return acc / len(known_rows)


def pseudo_unknown_embedding(known_rows, generic, alpha: float) -> np.ndarray:
    """The OWEL unknown prompt: the generic-object embedding `generic`
    shifted away from the known-class mean.

    Returns `generic - alpha * mean_dir` where `mean_dir` is the
    unit-normalized mean of the normalized `known_rows`. The result is left
    unnormalized; the cosine-similarity head makes its scale irrelevant.
    """
    mean = mean_known_embedding(known_rows)
    norm = float(np.linalg.norm(mean))
    if norm < _EPS:
        raise DegenerateMean("known-class embeddings cancel; mean direction undefined")
    return generic - alpha * (mean / norm)


def prompt_matrix(registry: ClassEmbeddingRegistry, unknown_row=None) -> np.ndarray:
    """Stack known embeddings in registry order, then `unknown_row`, the
    unknown prompt, as the final row when one is given."""
    rows = [e.embedding for e in registry.entries]
    if unknown_row is not None:
        rows.append(unknown_row)
    return np.stack(rows, axis=0)


def register_task(
    registry: ClassEmbeddingRegistry,
    new_classes: list[tuple[str, np.ndarray]],
) -> ClassEmbeddingRegistry:
    """Freeze every existing entry and append the new task's classes.

    New entries arrive unfrozen with task_id = previous max + 1.
    """
    existing = {e.name for e in registry.entries}
    fresh_names = [name for name, _ in new_classes]
    if len(set(fresh_names)) != len(fresh_names):
        raise DuplicateClass(f"duplicate names within new classes: {fresh_names}")
    clash = existing.intersection(fresh_names)
    if clash:
        raise DuplicateClass(f"classes already registered: {sorted(clash)}")
    next_task = registry.current_task + 1
    entries = [replace(e, frozen=True) for e in registry.entries]
    for name, emb in new_classes:
        entries.append(ClassEntry(name=name, embedding=np.asarray(emb, dtype=np.float64),
                                  task_id=next_task, frozen=False))
    return replace(registry, entries=tuple(entries))


def _round9(x: float) -> float:
    return float(f"{float(x):.9g}")


def save_embedding_file(path, embeddings: dict[str, np.ndarray]) -> None:
    """Write a name -> vector JSON map at 9 significant digits.

    The key "object" is reserved for the generic-object embedding. Values
    already at 9 significant digits round-trip byte-identically.
    """
    payload = {
        name: [_round9(v) for v in np.asarray(vec, dtype=np.float64)]
        for name, vec in embeddings.items()
    }
    write_json(path, payload)


def _embeddings_from_json(raw) -> dict[str, np.ndarray]:
    if not isinstance(raw, dict):
        raise ParseError("not a JSON object")
    out: dict[str, np.ndarray] = {}
    for name, values in raw.items():
        try:
            arr = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"embedding {name!r} is not numeric: {exc}") from exc
        if arr.ndim != 1:
            raise ParseError(f"embedding {name!r} is not a flat vector")
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"embedding {name!r} has a non-finite entry")
        out[name] = arr
    return out


def load_embedding_file(path) -> dict[str, np.ndarray]:
    return read_json(path, "embedding file", _embeddings_from_json, MissingWorld,
                     "; run gen first")
