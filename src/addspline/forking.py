"""Forked worker processes and the messages between them and their parent.

`Worker` forks a child that runs `fn(channel, *args)`; parent and child then
talk over one pair of pipes (`Channel`).  Every message is one pickle,
framed by its length: the raw bytes of an array never cross on their own,
and a CSV read sends sums over its rows, not the rows.  An exception that
`fn` raises reaches the parent as a message, and `Worker.recv` raises it
again.  A child that exits or dies before it has sent a whole message gives
`ChildProcessError` naming its pid and exit status.  `Worker.close` closes
the parent's pipe ends, then kills and reaps the child, so no exit path of
the parent waits on a child that waits on it.

A `Queue` of task indices lets the parent and its worker share out work
as they go: whichever process is free takes the next index, so the faster
process runs more tasks.

Forking is used only where `os.sched_getaffinity` exists, that is on Linux,
and by at most two processes in all, one parent and one `Worker` (`workers`).
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct

__all__ = ["Channel", "Queue", "Worker", "workers"]

_LENGTH = struct.Struct("<Q")  # the frame of every message: its length in bytes
_ENTRY = struct.Struct("<I")  # one entry of a `Queue`: the first index of its run


def workers() -> int:
    """Processes a task split over CPUs may use: the CPUs this process may run
    on, at most two, the only count measured (on a 2-vCPU host).  The affinity
    mask does not see a cgroup CPU quota; the cap bounds what a one-CPU quota
    costs to one forked worker.  One on a platform without
    `os.sched_getaffinity`, that is other than Linux, where forking a process
    whose BLAS threads have started was not measured."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), 2)


class Channel:
    """One end of a pair of pipes: it reads `read_fd` and writes `write_fd`."""

    def __init__(self, read_fd: int, write_fd: int):
        self.read_fd, self.write_fd = read_fd, write_fd

    def send(self, obj) -> None:
        """Send `obj` as one pickle."""
        data = pickle.dumps(obj)
        for view in (memoryview(_LENGTH.pack(len(data))), memoryview(data)):
            while view:
                view = view[os.write(self.write_fd, view) :]

    def recv(self):
        """The next message's object; EOFError if the sender has gone."""
        data, got, size = self.recv_frame()
        if size is None or got < size:
            raise EOFError(f"the sender closed its pipe after {got} bytes of a message")
        return pickle.loads(data)  # written by `send` in our own fork

    def recv_frame(self) -> tuple[memoryview, int, int | None]:
        """The next message: its bytes, the count read, and the count its frame
        announced (None if the frame itself was cut short).  The count read
        falls short only at end of file."""
        head = memoryview(bytearray(_LENGTH.size))
        got = self._read_into(head)
        if got < _LENGTH.size:
            return head, got, None
        (size,) = _LENGTH.unpack(head)
        out = memoryview(bytearray(size))
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


class Queue:
    """The indices 0..count - 1, in order, for a process and the one `Worker`
    it forks after making the queue: each index goes to one process, the
    first to ask for it.  Iterate over the queue to take indices until none
    is left; use as a context manager, or call `close`.

    The queue is a pipe, filled before the fork and then closed for
    writing: a read takes the next entry, and an empty pipe reads as its
    end, so neither process ever waits on the other.  An entry is 4 bytes
    and stands for a run of `run` consecutive indices: one index while the
    count fits in `select.PIPE_BUF` bytes (1024 entries of the 4096 bytes
    any Linux pipe holds; POSIX writes that many atomically, so an empty
    pipe holds them), so that filling the pipe never blocks.
    """

    def __init__(self, count: int):
        self.fd, write_fd = os.pipe()
        try:
            slots = select.PIPE_BUF // _ENTRY.size
            self.count, self.run = count, max(1, -(-count // slots))
            starts = range(0, count, self.run)
            view = memoryview(struct.pack(f"<{len(starts)}I", *starts))
            while view:
                view = view[os.write(write_fd, view) :]
        except BaseException:
            os.close(self.fd)
            raise
        finally:
            os.close(write_fd)

    def __iter__(self):
        # a read of one entry is atomic: the pipe holds whole entries alone
        while entry := os.read(self.fd, _ENTRY.size):
            (start,) = _ENTRY.unpack(entry)
            yield from range(start, min(start + self.run, self.count))

    def close(self) -> None:
        os.close(self.fd)

    def __enter__(self) -> "Queue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Worker:
    """A forked child that runs `fn(channel, *args)` and then exits.

    The child sends what it computes through its channel; whatever `fn`
    raises is sent as its last message.  It never returns into the caller's
    code.  The package forks at most one worker at a time (`workers`), so the
    child has no sibling whose pipe ends it would need to close.  Use as a
    context manager, or call `close`.
    """

    def __init__(self, fn, *args):
        down_r, down_w = os.pipe()  # parent -> child
        up_r, up_w = os.pipe()  # child -> parent
        try:
            pid = os.fork()
        except OSError:
            for fd in (down_r, down_w, up_r, up_w):
                os.close(fd)
            raise
        if pid == 0:
            _child(fn, args, Channel(down_r, up_w), [down_w, up_r])
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
