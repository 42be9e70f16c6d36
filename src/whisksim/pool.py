"""The fork pool through which every command runs its items.

ordered_map(fn, items) is [fn(item) for item in items], computed in forked
worker processes: train-eval maps its terrains and then its repetitions
through it, speed-sweep its speeds and synth its terrains. Where fork is
not available (Windows), the plain loop runs instead.

How many workers (_worker_count). For n items on the CPUs of the process's
affinity mask (os.cpu_count, or 1, where the platform has no mask), the
fewest w in [min(n, cpus), min(n, 2 * cpus)] whose last round of n % w
items (w when it divides n) still holds every CPU, or min(n, cpus) where
no w in range does. The kernel shares the CPUs among the w >= cpus runnable
workers, so n equal items take about n / cpus item-times instead of
ceil(n / cpus): on two CPUs, five speeds run on three workers in 2.5
training-times, not 3, seven terrains run on four and four repetitions stay
on two. On a 2-vCPU host whose cpusets turn load balancing off
(cpuset.sched_load_balance 0), a forked worker can start on its parent's
CPU beside another: two busy forked children shared one CPU in 2 of 11
trials, and the kernel first moved one of them 1.0-1.2 s after the fork.
The extra worker still pays there: the default speed-sweep took 7.38 s on
three workers against 8.49 s on two, one per CPU (medians of 8 alternating
runs; three workers won all 8).

How items are dealt. Every caller maps items of equal cost (repetitions of
one dataset, speeds with equal window counts, terrains with equal row
counts), so they are dealt round-robin at the fork: of w workers, worker j
runs items[j::w] (five speeds on two CPUs: three workers holding 2, 2 and
1 speeds). Fork hands every worker fn and its share, with whatever they
hold (a dataset, a profile table), without pickling them: nothing is sent
to a worker, and the workers share the parent's memory pages.

How results come back (_serve). Each worker pickles (True, value) or
(False, exception) for each of its items, in order, onto a one-way pipe of
its own. os.fork and os.pipe stand in for multiprocessing, whose import
and first Pipe and Process add about 0.8 MiB to the parent's peak memory.
The parent reads item i from worker i % w, so results keep input order and
reports do not depend on the worker count. No lock is shared with a
worker, so terminating one cannot leave the parent waiting
(multiprocessing.Pool can hang there: it may kill a worker that holds its
result queue's lock).

How it fails. If items fail, the exception of the first one in input order
is raised once every item before it has succeeded, as the plain loop would,
and the workers are terminated. A worker that dies before its reply is
whole (killed by the kernel for memory, say) fails its item with a
WorkerDiedError naming the item's index and the worker's exit code; a fork
that fails (EAGAIN at the process limit, say) raises one naming the worker
and the errno, once the workers already forked are reaped. The command
line exits 5 on either.
"""

import os
import pickle
import signal
import sys

from .errors import WorkerDiedError


def _serve(conn, fn, items) -> None:
    """Forked worker: pickle (True, result) or (False, exception) of fn(item)
    onto conn, a buffered binary file flushed after each reply, for each of
    its items in order, then return."""
    for item in items:
        try:
            reply = True, fn(item)
        except Exception as exc:
            reply = False, exc
        pickle.dump(reply, conn)
        conn.flush()


def _worker_count(n: int, cpus: int) -> int:
    """Workers for n equal items on cpus CPUs (see the module docstring)."""
    fewest = min(n, cpus)
    for w in range(fewest, min(n, 2 * cpus) + 1):
        if n % w == 0 or n % w >= cpus:
            return w
    return fewest


def ordered_map(fn, items: list) -> list:
    """[fn(item) for item in items], with that loop's results and first
    failure, in forked workers (see the module docstring)."""
    if not hasattr(os, "fork"):
        return [fn(item) for item in items]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    count = _worker_count(len(items), cpus)
    readers, pids = [], []   # pids of the workers not yet reaped
    try:
        # a SIGINT or SIGTERM between a fork and its append would leave a
        # worker that nothing terminates: it waits until every worker is listed
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        try:
            for j in range(count):
                fd, writer_fd = os.pipe()
                readers.append(open(fd, "rb"))
                with open(writer_fd, "wb") as writer:   # the parent's copy closes here
                    try:
                        pid = os.fork()
                    except OSError as exc:   # EAGAIN at the process limit, say
                        raise WorkerDiedError(
                            f"could not fork worker {j}: {exc}") from None
                    if pid == 0:   # the worker leaves only by os._exit
                        try:
                            # Ctrl-C reaches the whole group, and the parent
                            # ends its workers with SIGTERM; an orphan, holding
                            # no read end, dies of SIGPIPE at its next reply
                            signal.signal(signal.SIGINT, signal.SIG_IGN)
                            for signum in (signal.SIGTERM, signal.SIGPIPE):
                                signal.signal(signum, signal.SIG_DFL)
                            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                            for reader in readers:
                                reader.close()
                            _serve(writer, fn, items[j::count])
                            os._exit(0)
                        except BaseException:
                            sys.excepthook(*sys.exc_info())
                        finally:
                            os._exit(1)
                pids.append(pid)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = []
        for index in range(len(items)):
            try:
                ok, value = pickle.load(readers[index % count])
            except (EOFError, pickle.UnpicklingError):   # it died before or mid-reply
                _, status = os.waitpid(pids.pop(index % count), 0)
                raise WorkerDiedError(
                    f"worker for item {index} exited with code "
                    f"{os.waitstatus_to_exitcode(status)} before replying") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()
