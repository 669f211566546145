"""An order-keeping map that fans its items out over the CPUs this process
may run on, one forked child per contiguous block of items.

A child inherits the parent's memory as it was at the fork, so `fn` and the
items are never pickled; only each block's results travel back, pickled
into a pipe. The function must be pure in the sense that matters here: its
result, and every file it writes, depend only on its item.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from contextlib import suppress


def cpu_count() -> int:
    """The CPUs this process may run on; 1 where it cannot fork (no
    `os.fork` or `os.sched_getaffinity`, as off Linux)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _run_block(fn, items, start: int, stop: int, read_fd: int, write_fd: int) -> None:
    """In a forked child: write the pickled results of `fn` over
    `items[start:stop]`, or the index of the first item that raised, to
    `write_fd`, and leave the process. Exit status 0 means the message is
    whole."""
    code = 1
    try:
        os.close(read_fd)
        results = []
        try:
            for item in items[start:stop]:
                results.append(fn(item))
        except Exception:
            # the parent reruns the item, which raises there with its own
            # traceback and attributes; an exception need not pickle
            message = start + len(results)
        else:
            message = results
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def ordered_map(fn, items) -> list:
    """`[fn(x) for x in items]`, computed by up to one process per CPU.

    The items are cut into contiguous blocks, one per worker; the parent
    computes the first block itself while a forked child computes each
    other. A child that fails at an item hands back that item's index, and
    the parent computes the block on from there, so the first item that
    fails raises its own exception, unchanged, in the parent. A child that
    dies without a message has its whole block recomputed, and so has a
    block no child could be forked for. Every child is reaped before this
    returns or raises, killed first if still running.

    Runs in-process with one CPU or one item, and while a second thread is
    alive, since a forked child would hold only the calling thread and
    whatever locks the others held at the fork.
    """
    items = list(items)
    workers = min(cpu_count(), len(items))
    if workers < 2 or threading.active_count() > 1:
        return [fn(item) for item in items]
    bounds = [len(items) * k // workers for k in range(workers + 1)]
    children: dict[int, tuple[int, object]] = {}  # block -> (pid, read end)
    try:
        for block in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the parent computes the rest
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _run_block(fn, items, bounds[block], bounds[block + 1], read_fd, write_fd)
            os.close(write_fd)
            children[block] = (pid, os.fdopen(read_fd, "rb"))
        results: list = []
        for block in range(workers):
            start, stop = bounds[block], bounds[block + 1]
            if block in children:
                pid, pipe = children[block]
                with pipe:
                    message = pipe.read()
                _, status = os.waitpid(pid, 0)
                del children[block]
                message = pickle.loads(message) if status == 0 else start
                if isinstance(message, list):
                    results += message
                    continue
                start = message
            results += [fn(item) for item in items[start:stop]]
        return results
    finally:
        for pid, pipe in children.values():
            pipe.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
