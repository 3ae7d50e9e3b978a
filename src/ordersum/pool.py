"""Independent jobs, run on every CPU this process may run on.

``run`` is the package's one worker pool: ``enumeration.search_ahead``
searches the orders whose catalog is not cached with it, and
``groups.build_groups`` walks a scan's groups with it.  W = min(CPUs, jobs)
workers run the jobs: this process and W - 1 children forked from it, and
no child at all when W is 1.  The jobs wait on one pipe in the order given,
the callers' largest first, and each worker takes the next token when it is
free.  A child pickles what it found, or its first error, to a pipe of its
own and exits; this process reads every child's pipe to the end and reaps
the child on every path, its own failure too, so no worker outlives a call.

A fork copies only the thread that calls it.  The package starts no
thread; numpy, which a scan imports before it forks, starts an OpenBLAS
thread when it is imported, and OpenBLAS stops its threads at a fork (in
parent and child, by its ``pthread_atfork`` handler) and starts them again
only for a BLAS call, which no command makes.  So the fork copies no lock
that another thread holds.  This module imports nothing but ``os`` at load,
and ``pickle`` only to fork.
"""

from __future__ import annotations

import os

# The most tokens one queue holds: 4 bytes each, 4096 bytes in all, which is
# PIPE_BUF on Linux, so one write queues them all before any worker reads.
# Past that many jobs, a token stands for a run of consecutive jobs.
TOKENS = 1024


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _taken(queue: int, size: int, count: int):
    """The positions of the jobs that this worker takes off the queue, size
    of them a token, until it is empty; the other workers read the same pipe."""
    while token := os.read(queue, 4):
        start = int.from_bytes(token, "little") * size
        yield from range(start, min(start + size, count))


def _child(queue: int, reply: int, end: int, jobs: list, size: int, work, failed: str):
    """A forked worker: run the jobs it takes off the queue, pickle their
    results by position (or its first error) to the end of its reply pipe,
    and exit; it never returns into its caller."""
    import pickle

    status = 1
    try:
        os.close(reply)
        done, i = {}, 0
        try:
            for i in _taken(queue, size, len(jobs)):
                done[i] = work(jobs[i])
            doc = (done, None)
        except Exception as exc:
            doc = (None, f"{failed.format(jobs[i])} failed: {type(exc).__name__}: {exc}")
        with open(end, "wb") as fh:
            pickle.dump(doc, fh)
        status = 0
    finally:
        os._exit(status)


def run(jobs, work, failed: str, died: str) -> list:
    """[work(job) for job in jobs], each job run by one of W workers.

    ``failed`` and ``died`` are the messages of a child's failure: a child
    whose work raises stops, and RuntimeError(``failed.format(job)`` +
    " failed: " + the error) is raised here; a child that exits without a
    reply raises RuntimeError(``died.format(exit code)``).  Work that raises
    in this process stops it taking jobs, and the error propagates once
    every child is reaped.  The results are returned in the jobs' order.
    """
    jobs = list(jobs)
    workers = min(_cpus(), len(jobs))
    if workers <= 1:
        return [work(job) for job in jobs]
    import pickle

    size = -(-len(jobs) // TOKENS)
    queue, tokens = os.pipe()
    os.write(tokens, b"".join(t.to_bytes(4, "little") for t in range(-(-len(jobs) // size))))
    os.close(tokens)
    results: dict[int, object] = {}
    children: list[tuple[int, int]] = []  # (pid, reply pipe)
    replies: list[tuple[int, bytes]] = []  # (exit code, reply)
    try:
        for _ in range(workers - 1):
            reply, end = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(queue, reply, end, jobs, size, work, failed)
            except BaseException:
                os.close(reply)
                raise
            finally:
                os.close(end)
            children.append((pid, reply))
        for i in _taken(queue, size, len(jobs)):
            results[i] = work(jobs[i])
    finally:
        while os.read(queue, 4096):
            pass  # on a failure here, the children take no further job
        os.close(queue)
        for pid, reply in children:
            with open(reply, "rb") as fh:
                text = fh.read()
            replies.append((os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), text))
    for code, text in replies:
        if code or not text:
            raise RuntimeError(died.format(code))
        done, error = pickle.loads(text)
        if error is not None:
            raise RuntimeError(error)
        results.update(done)
    return [results[i] for i in range(len(jobs))]
