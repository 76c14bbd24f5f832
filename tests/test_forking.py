"""Forked workers: the two-way exchange of pickles, and every way a worker or
its parent can fail without leaving a process behind."""

import os
import signal
import struct
import time

import numpy as np
import pytest

from addspline import forking


def _assert_no_child_remains():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _echo(channel):
    """Send back twice each number received, until None."""
    while (value := channel.recv()) is not None:
        channel.send(2 * value)


def test_two_way_exchange():
    with forking.Worker(_echo) as worker:
        for value in (1, 2.5, -7):
            worker.send(value)
            assert worker.recv() == 2 * value
        worker.send(None)
    _assert_no_child_remains()


def test_a_message_larger_than_a_pipe_arrives_whole():
    n = 100_000  # 800 kB pickled, more than a pipe's buffer
    with forking.Worker(lambda channel: channel.send(np.arange(n, dtype=float) / 3.0)) as worker:
        assert np.array_equal(worker.recv(), np.arange(n, dtype=float) / 3.0)
    _assert_no_child_remains()


def test_exception_of_the_worker_is_raised_again():
    def fail(channel):
        raise KeyError("no such column")

    with forking.Worker(fail) as worker, pytest.raises(KeyError, match="no such column"):
        worker.recv()
    _assert_no_child_remains()


@pytest.mark.parametrize("sent, message", [(b"", "0 bytes"), (b"\x64\x00", "2 bytes"),
                                           (struct.pack("<Q", 100) + b"x" * 10, "10 of 100 bytes")])
def test_worker_killed_mid_message_names_pid_and_status(sent, message):
    def die(channel):
        os.write(channel.write_fd, sent)
        os.kill(os.getpid(), signal.SIGKILL)

    worker = forking.Worker(die)
    with pytest.raises(ChildProcessError,
                       match=f"worker {worker.pid} exited with status -9 after sending {message}"):
        worker.recv()
    worker.close()  # already reaped: nothing left to do
    _assert_no_child_remains()


def test_worker_exiting_mid_message_names_its_exit_status():
    def die(channel):
        os.write(channel.write_fd, struct.pack("<Q", 80) + b"\0" * 16)
        os._exit(3)

    with forking.Worker(die) as worker:
        with pytest.raises(ChildProcessError,
                           match=f"worker {worker.pid} exited with status 3 after sending 16 of 80"):
            worker.recv()
    _assert_no_child_remains()


def test_sending_to_a_worker_that_has_exited():
    with forking.Worker(lambda channel: None) as worker:
        os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)  # wait, do not reap
        with pytest.raises(ChildProcessError, match=f"worker {worker.pid} exited with status 0"):
            worker.send(np.zeros(1 << 16))  # more than a pipe holds
    _assert_no_child_remains()


def test_parent_raising_mid_exchange_leaves_no_child():
    # the worker waits for a message that never comes: closing must not wait on it
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="parent failed"):
        with forking.Worker(_echo) as worker:
            worker.send(1)
            assert worker.recv() == 2
            raise RuntimeError("parent failed")
    assert time.perf_counter() - start < 5.0
    _assert_no_child_remains()


def test_close_kills_a_busy_worker():
    # the worker neither reads nor writes its pipes: only a kill stops it
    start = time.perf_counter()
    with forking.Worker(lambda channel: time.sleep(60)):
        pass
    assert time.perf_counter() - start < 5.0
    _assert_no_child_remains()


def test_worker_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)), raising=False)
    assert forking.workers() == 2  # two, the count measured
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert forking.workers() == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform other than Linux
    assert forking.workers() == 1


def test_worker_takes_no_siblings():
    # the package forks at most one worker at a time: the child has no sibling
    # whose pipe ends it would close, and nothing is forked on a bad call
    with pytest.raises(TypeError, match="siblings"):
        forking.Worker(_echo, siblings=())
    assert not hasattr(forking, "_MAX_WORKERS")
    _assert_no_child_remains()


def _take_all(channel, queue):
    channel.send(list(queue))


@pytest.mark.parametrize("count", [0, 1, 1000, 40_000])
def test_queue_gives_each_index_to_one_process(count):
    # 40000 indices: more four-byte entries than the 16384 a 64 KiB pipe holds
    with forking.Queue(count) as queue, forking.Worker(_take_all, queue) as worker:
        ours = list(queue)
        theirs = worker.recv()
    _assert_no_child_remains()
    assert sorted(ours + theirs) == list(range(count))
    assert ours == sorted(ours) and theirs == sorted(theirs)


def test_queue_past_a_pipes_capacity_takes_runs_of_indices():
    with forking.Queue(40_000) as queue:  # made without blocking on a full pipe
        assert queue.run > 1
        assert list(queue) == list(range(40_000))
        assert list(queue) == []
