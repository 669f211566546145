import os
import threading
import time

import pytest

from openworld_kit import parallel
from openworld_kit.errors import ParseError
from openworld_kit.parallel import ordered_map


@pytest.fixture()
def workers(monkeypatch):
    """`workers(n)` makes `ordered_map` fan out over `n` processes."""
    def pin(n):
        monkeypatch.setattr(parallel, "cpu_count", lambda: n)
    return pin


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square(x):
    return x, x * x, f"item {x}", [float(x)] * x


@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("n_items", [0, 1, 2, 3, 7])
def test_equals_the_list_comprehension(workers, n_workers, n_items):
    workers(n_workers)
    assert ordered_map(square, range(n_items)) == [square(x) for x in range(n_items)]
    # one process per block: as many as there are workers, and no more
    # than there are items
    pids = ordered_map(lambda _: os.getpid(), range(n_items))
    assert len(set(pids)) == min(n_workers, n_items)
    assert pids[:1] == [os.getpid()] * min(1, n_items)
    assert_no_child_left()


def failing_at(bad):
    def fn(x):
        if x in bad:
            raise ParseError(f"bad item {x}", path=f"item-{x}.txt", line=x + 1)
        return x
    return fn


# 7 items at 3 workers: the parent's block is items 0-1, the children's 2-3
# and 4-6
@pytest.mark.parametrize("bad, first", [
    ({1, 5}, 1),      # in the parent's block, with a later child failing too
    ({3, 5}, 3),      # in the first child's block
    ({6}, 6),         # the last item of the last child
], ids=["parent", "first-child", "last-child"])
def test_first_failing_item_raises_its_own_exception(workers, bad, first):
    workers(3)
    with pytest.raises(ParseError) as info:
        ordered_map(failing_at(bad), range(7))
    assert type(info.value) is ParseError
    assert (info.value.path, info.value.line) == (f"item-{first}.txt", first + 1)
    assert str(info.value) == f"bad item {first} [item-{first}.txt:{first + 1}]"
    assert_no_child_left()


def test_a_child_that_dies_has_its_block_recomputed(workers):
    workers(2)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os._exit(3)
        return x * 2
    assert ordered_map(fn, range(5)) == [0, 2, 4, 6, 8]
    assert_no_child_left()


def test_blocks_no_child_could_be_forked_for_run_in_the_parent(workers, monkeypatch):
    workers(3)
    forks = []

    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError("Resource temporarily unavailable")
        return real_fork()
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", fork)
    pids = ordered_map(lambda _: os.getpid(), range(6))
    assert len(forks) == 2
    assert pids[:2] == pids[4:] == [os.getpid()] * 2 and os.getpid() not in pids[2:4]
    assert_no_child_left()


def test_an_interrupt_kills_and_reaps_every_child(workers):
    workers(3)
    parent = os.getpid()

    def fn(x):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        ordered_map(fn, range(6))
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_in_process_while_a_second_thread_is_alive(workers):
    workers(3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert ordered_map(lambda _: os.getpid(), range(7)) == [os.getpid()] * 7
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()


def test_cpu_count_is_the_affinity_mask():
    assert parallel.cpu_count() == len(os.sched_getaffinity(0))
