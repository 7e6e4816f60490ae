"""Fork-join over the independent parts of a run.

``fork_map(fn, parts)`` returns ``[fn(part) for part in parts]``: part 0
runs in this process, every other part in a child forked before it, whose
result comes back pickled through a pipe.  A child inherits ``fn`` and
everything it closes over, so nothing but the parts' results crosses a
pipe, and the results are those a serial run computes.  No pool, no
``multiprocessing``: the commands split a run into as many parts as they
have workers, and each part into the chunks a serial run makes.

A child always leaves by ``os._exit``, so it flushes no inherited buffer
and runs no exit handler of its parent.  The parent reads each pipe to its
end before it waits for the child, which may block writing a large result
until then, and it reaps every child also when a part fails or the run is
interrupted, stopping the children it has not read yet.  A part's
exception is raised again in the parent, as the same type.
"""

from __future__ import annotations

import os
import pickle

__all__ = ["fork_map", "usable_cpus"]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _child(fn, part, fd: int) -> None:
    """Run one part and write (ok, result or exception) to ``fd``; never
    returns."""
    code = 0
    try:
        # a boundary: whatever the part raises, interrupts included, goes
        # to the parent, which raises it again
        try:
            payload = (True, fn(part))
        except BaseException as exc:
            payload = (False, exc)
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:                # an unpicklable result
            data = pickle.dumps((False, TypeError(
                f"worker result cannot be pickled: {exc}")))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
    except BaseException:
        code = 1                                # the parent sees no result
    finally:
        os._exit(code)


def _read_all(fd: int) -> bytes:
    """Every byte of a pipe, up to the end its writer leaves."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _decode(pid: int, data: bytes, status: int):
    """The result a child wrote; its exception raised here."""
    if not data:
        raise OSError(f"worker process {pid} ended without a result "
                      f"(wait status {status})")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def fork_map(fn, parts) -> list:
    """``[fn(part) for part in parts]``, one forked child per part after
    the first, which runs in this process; results in the order of
    ``parts``."""
    parts = list(parts)
    # [pid, read end of its pipe]; each is set to 0 / -1 once reaped /
    # closed, before the step where an interrupt could leave it half done
    children: list[list[int]] = []
    try:
        for part in parts[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child(fn, part, write)
            children.append([pid, read])
            os.close(write)
        results = [fn(part) for part in parts[:1]]
        for child in children:
            pid, read = child
            data = _read_all(read)          # before the wait: see above
            child[1] = -1
            os.close(read)
            _, status = os.waitpid(pid, 0)
            child[0] = 0
            results.append(_decode(pid, data, status))
        return results
    finally:
        # a failed part or an interrupt: stop and reap every child left
        for pid, read in children:
            if read >= 0:
                os.close(read)
            if pid:
                import signal               # only a failed run needs it
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass                    # reaped just before an interrupt
