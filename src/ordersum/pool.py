"""Independent jobs, run on every CPU this process may run on.

``run(jobs, work, sizes)`` is the package's one worker pool:
``enumeration.search_ahead`` searches the orders whose catalog is not
cached with it, and ``groups.build_groups`` walks a scan's groups with it.
W = min(CPUs, jobs) workers run the jobs: this process and W - 1 children
forked from it, and no child at all when W is 1.  The jobs wait on one pipe
largest first, by their sizes, and each worker takes the next token when it
is free.  A child pickles its results and its first failure, by job
position, to a pipe of its own and exits; this process reads every child's
pipe to the end and reaps the child on every path, its own failure too, so
no worker outlives a call.

One failure rule holds on any number of CPUs: a failed job raises its own
exception, and of several, the one first in the jobs' order.  W = 1 runs
the jobs in their order and stops at the first error; W > 1 workers run
every job and raise it once every child is reaped.  Only a child that
exits without a reply raises an error of the pool's own, and a child's
failure that a pickle cannot carry comes back as
RuntimeError("<TypeName>: <message>").

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
# Past that many jobs, a token stands for a run of consecutive ranks.
TOKENS = 1024


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _take(queue: int, jobs: list, work, ranked: list[int], size: int):
    """Run the jobs this worker takes off the queue, size ranks a token,
    until it is empty; the other workers read the same pipe.  Returns the
    results by job position, and the (position, exception) of the first
    job in the jobs' order that failed here, or None."""
    done, first = {}, None
    while token := os.read(queue, 4):
        start = int.from_bytes(token, "little") * size
        for i in ranked[start:start + size]:
            try:
                done[i] = work(jobs[i])
            except Exception as exc:
                if first is None or i < first[0]:
                    first = (i, exc)
    return done, first


def _child(queue: int, reply: int, end: int, jobs: list, work, ranked: list[int], size: int):
    """A forked worker: pickle what ``_take`` found to the end of its reply
    pipe, and exit; it never returns into its caller.  A failure that fails
    a pickle round trip, such as an exception whose ``__init__`` takes
    other arguments than its ``args``, is sent as its type name and message
    in a RuntimeError."""
    import pickle

    status = 1
    try:
        os.close(reply)
        done, first = _take(queue, jobs, work, ranked, size)
        if first is not None:
            i, exc = first
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                first = i, RuntimeError(f"{type(exc).__name__}: {exc}")
        with open(end, "wb") as fh:
            pickle.dump((done, first), fh)
        status = 0
    finally:
        os._exit(status)


def run(jobs, work, sizes) -> list:
    """[work(job) for job in jobs], each job run by one of W workers.

    ``sizes`` holds one number per job: the larger, the sooner the job is
    taken.  The results come back in the jobs' order; a failed job raises
    by the module's rule, and a child that exits without a reply raises
    RuntimeError("a worker exited with code N and sent no reply").
    """
    jobs = list(jobs)
    workers = min(_cpus(), len(jobs))
    if workers <= 1:
        return [work(job) for job in jobs]
    import pickle

    ranked = sorted(range(len(jobs)), key=list(sizes).__getitem__, reverse=True)
    size = -(-len(jobs) // TOKENS)
    queue, tokens = os.pipe()
    os.write(tokens, b"".join(t.to_bytes(4, "little") for t in range(-(-len(jobs) // size))))
    os.close(tokens)
    children: list[tuple[int, int]] = []  # (pid, reply pipe)
    replies: list[tuple[int, bytes]] = []  # (exit code, reply)
    try:
        for _ in range(workers - 1):
            reply, end = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(queue, reply, end, jobs, work, ranked, size)
            except BaseException:
                os.close(reply)
                raise
            finally:
                os.close(end)
            children.append((pid, reply))
        found = [_take(queue, jobs, work, ranked, size)]
    finally:
        while os.read(queue, 4096):
            pass  # if this process stops early, the children take no further job
        os.close(queue)
        for pid, reply in children:
            with open(reply, "rb") as fh:
                text = fh.read()
            replies.append((os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), text))
    for code, text in replies:
        if code or not text:
            raise RuntimeError(f"a worker exited with code {code} and sent no reply")
        found.append(pickle.loads(text))
    if failed := [first for _, first in found if first is not None]:
        raise min(failed)[1]
    results = {i: result for done, _ in found for i, result in done.items()}
    return [results[i] for i in range(len(jobs))]
