"""Run one call in a forked child while the caller goes on with other work."""

from __future__ import annotations

import os


def can_fork():
    """Whether :func:`fork_call` forks: ``os.fork`` exists, no other thread
    runs (a forked child would inherit their locks in whatever state they
    were), and the process may run on a second CPU: on one CPU the lanes
    could only take turns, and forking would only add its own cost."""
    import threading

    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return cpus > 1


def fork_call(fn, *args):
    """Start ``fn(*args)`` in a forked child; return ``join``, which waits
    for the child and returns its result.

    The child pickles its result, or the exception it raised, into a pipe
    and always leaves through ``os._exit``, so it flushes no stream it
    inherited and runs no exit handler: ``fn`` must not print.  ``join``
    always reaps the child; it re-raises the child's exception with its
    type, and raises ``ChildProcessError`` if the child died without
    writing.  When :func:`can_fork` is false the call runs in-process,
    inside ``join``.
    """
    if not can_fork():
        return lambda: fn(*args)
    import pickle  # before the fork, so that the child need not import it

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                data = pickle.dumps((True, fn(*args)), pickle.HIGHEST_PROTOCOL)
            except BaseException as err:  # the parent re-raises it
                data = pickle.dumps((False, err), pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)

    def join():
        with open(read_fd, "rb") as pipe:
            try:
                data = pipe.read()
            finally:
                status = os.waitpid(pid, 0)[1]
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"forked child {pid} ended with {code} and no result")
        ok, value = pickle.loads(data)
        if ok:
            return value
        raise value

    return join
