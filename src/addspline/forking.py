"""Forked worker processes and the messages between them and their parent.

`Worker` forks a child that runs `fn(channel, *args)`; parent and child then
talk over one pair of pipes (`Channel`).  A message is a pickle, or the raw
bytes of an array, which the receiver reads straight into an array of its
own; each is framed by its length.  An exception that `fn` raises reaches
the parent as a message, and `Worker.recv` raises it again.  A child that
exits or dies before it has sent a whole message gives `ChildProcessError`
naming its pid and exit status.  `Worker.close` closes the parent's pipe
ends, then kills and reaps the child, so no exit path of the parent waits on
a child that waits on it.

Forking is used only where `os.sched_getaffinity` exists, that is on Linux,
and by at most `_MAX_WORKERS` processes in all (`workers`).
"""

from __future__ import annotations

import os
import pickle
import signal
import struct

import numpy as np

__all__ = ["Channel", "Worker", "workers"]

# Two processes is the only count measured (on a 2-vCPU host); the affinity
# mask does not see a cgroup CPU quota, and the cap bounds what a one-CPU
# quota costs to one forked worker.
_MAX_WORKERS = 2

_LENGTH = struct.Struct("<Q")  # the frame of every message: its length in bytes


def workers() -> int:
    """Processes a task split over CPUs may use: the CPUs this process may run
    on, at most `_MAX_WORKERS`; one on a platform without
    `os.sched_getaffinity`, that is other than Linux, where forking a process
    whose BLAS threads have started was not measured."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS)


class Channel:
    """One end of a pair of pipes: it reads `read_fd` and writes `write_fd`."""

    def __init__(self, read_fd: int, write_fd: int):
        self.read_fd, self.write_fd = read_fd, write_fd

    def send(self, obj) -> None:
        """Send `obj` as one pickle."""
        self._send(memoryview(pickle.dumps(obj)))

    def send_array(self, a: np.ndarray) -> None:
        """Send the bytes of the contiguous array `a`, for `Worker.recv_into`."""
        self._send(memoryview(a).cast("B"))

    def _send(self, data: memoryview) -> None:
        for view in (memoryview(_LENGTH.pack(data.nbytes)), data):
            while view:
                view = view[os.write(self.write_fd, view) :]

    def recv(self):
        """The next message's object; EOFError if the sender has gone."""
        data, got, size = self.recv_frame()
        if size is None or got < size:
            raise EOFError(f"the sender closed its pipe after {got} bytes of a message")
        return pickle.loads(data)  # written by `send` in our own fork

    def recv_frame(self, out: memoryview | None = None) -> tuple[memoryview, int, int | None]:
        """The next message, read into `out` when given: its bytes, the count
        read, and the count its frame announced (None if the frame itself was
        cut short).  The count read falls short only at end of file."""
        head = memoryview(bytearray(_LENGTH.size))
        got = self._read_into(head)
        if got < _LENGTH.size:
            return head, got, None
        (size,) = _LENGTH.unpack(head)
        if out is None:
            out = memoryview(bytearray(size))
        elif out.nbytes != size:
            raise ValueError(f"a message of {size} bytes sent for {out.nbytes} bytes")
        return out, self._read_into(out), size

    def _read_into(self, view: memoryview) -> int:
        total = 0
        while total < view.nbytes:
            got = os.readv(self.read_fd, [view[total:]])
            if got == 0:
                break
            total += got
        return total

    def close(self) -> None:
        os.close(self.read_fd)
        os.close(self.write_fd)


class Worker:
    """A forked child that runs `fn(channel, *args)` and then exits.

    The child sends what it computes through its channel; whatever `fn`
    raises is sent as its last message.  It never returns into the caller's
    code.  `siblings` are other workers of this process, whose pipe ends the
    child closes so that only the parent holds them.  Use as a context
    manager, or call `close`.
    """

    def __init__(self, fn, *args, siblings=()):
        down_r, down_w = os.pipe()  # parent -> child
        up_r, up_w = os.pipe()  # child -> parent
        try:
            pid = os.fork()
        except OSError:
            for fd in (down_r, down_w, up_r, up_w):
                os.close(fd)
            raise
        if pid == 0:
            fds = [down_w, up_r]
            for w in siblings:
                fds += [w.channel.read_fd, w.channel.write_fd]
            _child(fn, args, Channel(down_r, up_w), fds)
        os.close(down_r)
        os.close(up_w)
        self.pid = pid
        self.channel = Channel(up_r, down_w)
        self._open = True

    def send(self, obj) -> None:
        """Send `obj` to the child; `ChildProcessError` if it has gone."""
        try:
            self.channel.send(obj)
        except BrokenPipeError:
            raise self._lost(0, None) from None

    def recv(self):
        """The child's next message; an exception it sent is raised here."""
        data, got, size = self.channel.recv_frame()
        if size is None or got < size:
            raise self._lost(got, size)
        try:
            obj = pickle.loads(data)  # written by `Channel.send` in our own fork
        except (EOFError, pickle.UnpicklingError):
            raise self._lost(got, None) from None
        if isinstance(obj, BaseException):
            raise obj
        return obj

    def recv_into(self, out: np.ndarray) -> None:
        """Read the child's next message, an array's bytes, into `out`."""
        _, got, size = self.channel.recv_frame(memoryview(out).cast("B"))
        if size is None or got < size:
            raise self._lost(got, size)

    def _lost(self, got: int, size: int | None) -> ChildProcessError:
        """The error of a child that stopped short of a whole message.  It is
        reaped without a kill once our pipe ends are closed (so it cannot
        block on them), and its own exit status is named."""
        self._open = False
        self.channel.close()
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        of = "" if size is None else f" of {size}"
        return ChildProcessError(
            f"worker {self.pid} exited with status {status} after sending {got}{of} bytes"
        )

    def close(self) -> None:
        """Close the parent's pipe ends, then kill and reap the child."""
        if not self._open:
            return
        self._open = False
        self.channel.close()
        os.kill(self.pid, signal.SIGKILL)  # a no-op on a child that has exited
        os.waitpid(self.pid, 0)

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _child(fn, args, channel: Channel, inherited: list[int]) -> None:
    """In a forked child: close the pipe ends `inherited` from the parent, run
    `fn`, send what it raises, and exit; never return into the caller."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            fn(channel, *args)
            status = 0
        except BaseException as exc:  # sent to the parent, which raises it again
            channel.send(exc)
    finally:
        os._exit(status)
