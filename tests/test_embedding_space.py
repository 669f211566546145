import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openworld_kit.embedding_space import (
    ClassEmbeddingRegistry,
    ClassEntry,
    load_embedding_file,
    mean_known_embedding,
    normalize,
    prompt_matrix,
    pseudo_unknown_embedding,
    register_task,
    save_embedding_file,
)
from openworld_kit.errors import (
    DegenerateMean,
    DuplicateClass,
    EmptyRegistry,
    ParseError,
    ZeroVector,
)
from openworld_kit.owod_eval import TaskSplitSpec
from openworld_kit.training import TrainConfig


def make_registry(embs, task_id=1, frozen=False):
    entries = tuple(
        ClassEntry(name=f"c{i}", embedding=np.asarray(e, dtype=float),
                   task_id=task_id, frozen=frozen)
        for i, e in enumerate(embs)
    )
    return ClassEmbeddingRegistry(entries=entries)


class TestNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(normalize(np.array([3.0, 4.0])), [0.6, 0.8], rtol=0, atol=1e-15)

    def test_already_unit(self):
        np.testing.assert_array_equal(normalize(np.array([1.0, 0.0, 0.0])), [1.0, 0.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            normalize(np.zeros(2))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=12))
    def test_idempotent(self, values):
        v = np.asarray(values)
        if np.linalg.norm(v) < 1e-6:
            return
        once = normalize(v)
        np.testing.assert_allclose(normalize(once), once, rtol=0, atol=1e-12)


class TestMeanKnownEmbedding:
    def test_single_class_reduces_to_normalize(self):
        np.testing.assert_allclose(mean_known_embedding(np.array([[0.0, 2.0]])), [0.0, 1.0],
                                   atol=1e-15)

    def test_two_orthogonal_units(self):
        mean = mean_known_embedding(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(mean, [0.5, 0.5], atol=1e-15)
        assert np.linalg.norm(mean) == pytest.approx(np.sqrt(2) / 2, abs=1e-15)

    def test_antipodal_cancellation_then_downstream_error(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(mean_known_embedding(rows), [0.0, 0.0], atol=1e-15)
        with pytest.raises(DegenerateMean):
            pseudo_unknown_embedding(rows, np.array([0.0, 1.0]), 0.4)

    def test_empty_registry(self):
        with pytest.raises(EmptyRegistry):
            mean_known_embedding(np.empty((0, 2)))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        embs = rng.normal(size=(4, 6))
        embs = embs[np.linalg.norm(embs, axis=1) > 1e-3]
        if len(embs) == 0:
            return
        scales = rng.uniform(0.1, 50.0, size=len(embs))
        np.testing.assert_allclose(mean_known_embedding(embs),
                                   mean_known_embedding(embs * scales[:, None]), atol=1e-12)


class TestPseudoUnknownEmbedding:
    def test_alpha_zero_is_generic_exactly(self):
        rng = np.random.default_rng(0)
        generic = rng.normal(size=8)
        assert np.array_equal(pseudo_unknown_embedding(rng.normal(size=(5, 8)), generic, 0.0),
                              generic)

    def test_direct_substitution(self):
        # single class along e2: mean direction is e2 regardless of its scale
        np.testing.assert_allclose(
            pseudo_unknown_embedding(np.array([[0.0, 5.0, 0.0]]), np.array([1.0, 0.0, 0.0]), 0.4),
            [1.0, -0.4, 0.0], atol=1e-15)

    def test_mean_scale_is_normalized_away(self):
        generic = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            pseudo_unknown_embedding(np.array([[0.0, 2.0, 0.0]]), generic, 0.4),
            pseudo_unknown_embedding(np.array([[0.0, 0.02, 0.0]]), generic, 0.4))

    def test_default_alpha_matches_shipped_value(self):
        # alpha is a [train] key, read whenever the unknown prompt is built
        assert TrainConfig().alpha == 0.4


class TestPromptMatrix:
    def test_known_rows_in_registry_order(self):
        embs = np.eye(4)[:3] * [[2.0], [3.0], [4.0]]
        reg = make_registry(embs)
        mat = prompt_matrix(reg)
        assert mat.shape == (3, 4)
        np.testing.assert_array_equal(mat, embs)

    def test_unknown_row_appended(self):
        reg = make_registry(np.eye(4)[:3])
        unknown = pseudo_unknown_embedding(np.eye(4)[:3], np.eye(4)[3], 0.4)
        mat = prompt_matrix(reg, unknown)
        assert mat.shape == (4, 4)
        np.testing.assert_array_equal(mat[3], unknown)

    def test_voc_sized_registry_gets_21_rows(self):
        rng = np.random.default_rng(1)
        reg = make_registry(rng.normal(size=(20, 16)))
        assert prompt_matrix(reg, rng.normal(size=16)).shape[0] == 21

    @given(st.integers(1, 8), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_row_count_contract(self, n, include_unknown):
        rng = np.random.default_rng(n)
        reg = make_registry(rng.normal(size=(n, 5)))
        unknown = rng.normal(size=5) if include_unknown else None
        assert prompt_matrix(reg, unknown).shape[0] == n + int(include_unknown)


class TestRegisterTask:
    def test_incremental_registration_freezes_previous(self):
        rng = np.random.default_rng(2)
        reg = make_registry(rng.normal(size=(10, 8)))
        reg = register_task(reg, [(f"new{i}", rng.normal(size=8)) for i in range(7)])
        assert reg.num_known == 17
        assert all(e.frozen for e in reg.entries[:10])
        assert all(not e.frozen for e in reg.entries[10:])
        assert all(e.task_id == 2 for e in reg.entries[10:])

    def test_register_into_empty(self):
        reg = ClassEmbeddingRegistry(entries=())
        reg = register_task(reg, [("only", np.array([0.0, 1.0]))])
        assert reg.num_known == 1
        assert reg.entries[0].task_id == 1
        assert not reg.entries[0].frozen

    def test_duplicate_name_rejected(self):
        reg = make_registry([[1.0, 0.0]])
        with pytest.raises(DuplicateClass):
            register_task(reg, [("c0", np.array([0.0, 1.0]))])

    def test_frozen_embeddings_cannot_be_replaced(self):
        reg = make_registry([[1.0, 0.0]])
        reg = register_task(reg, [("late", np.array([0.0, 1.0]))])
        with pytest.raises(ValueError):
            reg.with_embeddings({"c0": np.array([0.5, 0.5])})

    def test_prior_embedding_bytes_survive_registration(self):
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(3, 6))
        reg = make_registry(emb)
        before = [e.embedding.tobytes() for e in reg.entries]
        reg2 = register_task(reg, [("x", rng.normal(size=6))])
        after = [e.embedding.tobytes() for e in reg2.entries[:3]]
        assert before == after


class TestTaskSchedule:
    def test_known_at_accumulates(self):
        sched = TaskSplitSpec(tasks=((1, ("a", "b")), (2, ("c",))))
        assert sched.known_classes(1) == ("a", "b")
        assert sched.known_classes(2) == ("a", "b", "c")
        assert sched.previous_classes(2) == ("a", "b")

    def test_duplicate_class_across_tasks(self):
        with pytest.raises(DuplicateClass):
            TaskSplitSpec(tasks=((1, ("a",)), (2, ("a",))))

    def test_non_contiguous_ids(self):
        with pytest.raises(ValueError):
            TaskSplitSpec(tasks=((1, ("a",)), (3, ("b",))))


class TestEmbeddingFile:
    def test_round_trip_exact_at_nine_digits(self, tmp_path):
        rng = np.random.default_rng(4)
        payload = {"object": rng.normal(size=6), "cat": rng.normal(size=6)}
        path = tmp_path / "emb.json"
        save_embedding_file(path, payload)
        first = path.read_bytes()
        loaded = load_embedding_file(path)
        save_embedding_file(path, loaded)
        assert path.read_bytes() == first
        for key, vec in payload.items():
            np.testing.assert_allclose(loaded[key], vec, rtol=1e-8)

    def test_values_carry_nine_significant_digits(self, tmp_path):
        path = tmp_path / "emb.json"
        save_embedding_file(path, {"c": np.array([1.23456789123456789, 2.0])})
        raw = json.loads(path.read_text())
        assert raw["c"][0] == float("1.23456789")

    @pytest.mark.parametrize("text", [
        '{"object": [1, "a"]}',
        '{"object": [1, NaN]}',
        '{"object": [1, -Infinity]}',
        '{"object": [1, null]}',
        '{"object": [1, {"x": 2}]}',
        pytest.param('{"object": [1' + '0' * 400 + ', 2]}', id="integer-overflow"),
        '[[1, 2]]',
        '"object"',
    ])
    def test_malformed_vectors_are_parse_errors(self, tmp_path, text):
        path = tmp_path / "emb.json"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_embedding_file(path)
        assert err.value.path == str(path)
