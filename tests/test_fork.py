"""The fork-join helper: order, errors, and no child left behind."""

import os
import time

import numpy as np
import pytest

from densel.fork import fork_map, usable_cpus


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_in_order_across_processes():
    """Part 0 runs in this process and every other part in a child of it;
    results, arrays larger than a pipe's buffer included, come back in
    the order of the parts."""
    pids = fork_map(lambda part: os.getpid(), range(3))
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    got = fork_map(lambda size: np.arange(size), [5, 300_000, 0])
    assert [a.size for a in got] == [5, 300_000, 0]
    assert np.array_equal(got[1], np.arange(300_000))
    assert fork_map(lambda part: part, []) == []
    _no_children_left()


def test_child_exception_raised_as_same_type():
    def run(part):
        if part == 2:
            raise KeyError("part 2")
        return part

    with pytest.raises(KeyError, match="part 2"):
        fork_map(run, range(4))
    _no_children_left()


def test_failed_part_stops_and_reaps_children():
    """A failure in this process's part, an interrupt included, stops the
    children at once instead of waiting for their parts."""
    def run(part):
        if part == 0:
            raise KeyboardInterrupt
        time.sleep(30)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fork_map(run, range(3))
    assert time.monotonic() - start < 10
    _no_children_left()


def test_child_without_result_is_an_os_error():
    def run(part):
        if part:
            os._exit(3)
        return part

    with pytest.raises(OSError, match="without a result"):
        fork_map(run, range(2))
    _no_children_left()


def test_unpicklable_result_is_a_type_error():
    with pytest.raises(TypeError, match="cannot be pickled"):
        fork_map(lambda part: (lambda: part), range(2))
    _no_children_left()


def test_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1
