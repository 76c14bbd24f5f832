"""Forked workers: the two-way exchange, arrays read in place, and every way a
worker or its parent can fail without leaving a process behind."""

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


def test_array_bytes_arrive_in_the_receivers_array():
    def send_half(channel, n):
        channel.send(n)
        channel.send_array(np.arange(n, dtype=float) / 3.0)

    n = 100_000  # larger than a pipe's buffer
    out = np.zeros(2 * n)
    with forking.Worker(send_half, n) as worker:
        assert worker.recv() == n
        worker.recv_into(out[n:])
    assert not out[:n].any()
    assert np.array_equal(out[n:], np.arange(n, dtype=float) / 3.0)
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


def test_array_cut_short_names_pid_and_status():
    def die(channel):
        os.write(channel.write_fd, struct.pack("<Q", 80) + b"\0" * 16)
        os._exit(3)

    with forking.Worker(die) as worker:
        with pytest.raises(ChildProcessError,
                           match=f"worker {worker.pid} exited with status 3 after sending 16 of 80"):
            worker.recv_into(np.zeros(10))
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
