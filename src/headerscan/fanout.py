"""Jobs on forked workers, for the grid search and the corpus loaders;
standard library only, so that loading imports no numpy or learners."""

from __future__ import annotations

import logging
import os
import time

log = logging.getLogger(__name__)


def _processes() -> int:
    """One per CPU this process may run on if it runs one OS thread and can
    fork, else 1: beside a live thread (a BLAS pool's, say) a fork is unsafe."""
    try:
        one_thread = hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1
        return len(os.sched_getaffinity(0)) if one_thread else 1
    except (AttributeError, OSError):
        return 1


def run_jobs(jobs: list, what: str) -> list:
    """[job() for job in jobs], or the lowest-index job's exception, the one
    the serial loop raises. Once a job fails, no job starts. what names
    the jobs in the INFO line."""
    start, processes = time.perf_counter(), min(_processes(), len(jobs))
    values = _fan_out(jobs, processes) if processes > 1 else [job() for job in jobs]
    log.info("%s: %d jobs, %d processes, %.2f s wall", what, len(jobs), processes,
             time.perf_counter() - start)
    return values


def _fan_out(jobs: list, processes: int) -> list:
    import multiprocessing  # here, so that only a fan-out pays for the import
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    claimed = ctx.Value("q", 0)  # the next job's index; len(jobs) stops the work
    done, readers, workers = {}, [], []  # done: index -> (raised, value)

    def work(send) -> None:
        while True:
            with claimed.get_lock():
                i = claimed.value
                claimed.value = min(i + 1, len(jobs))
            if i == len(jobs):
                return
            try:
                send((i, False, jobs[i]()))
            except Exception as exc:
                claimed.value = len(jobs)
                send((i, True, exc))

    def keep(message) -> None:
        done[message[0]] = message[1:]

    def drain(timeout) -> None:
        for reader in wait(readers, timeout):
            try:
                keep(reader.recv())
            except (EOFError, OSError):  # the worker has exited
                readers.remove(reader)

    try:
        for _ in range(processes - 1):
            reader, writer = ctx.Pipe(duplex=False)
            workers.append(ctx.Process(target=work, args=(writer.send,)))
            workers[-1].start()
            writer.close()
            readers.append(reader)
        work(lambda message: (keep(message), drain(0)))  # drain between own jobs
    finally:
        claimed.value = len(jobs)
        while readers:
            drain(None)
        for worker in workers:
            worker.join()
    for i in range(len(jobs)):
        raised, value = done.setdefault(i, (True, RuntimeError(f"job {i}'s worker exited")))
        if raised:
            raise value
    return [done[i][1] for i in range(len(jobs))]
