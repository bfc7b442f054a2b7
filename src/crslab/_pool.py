"""Map a function over independent items on every usable CPU.

``map_outcomes(fn, items)`` returns, in item order, what ``fn(item)``
returned or the exception that it raised.  Up to (usable CPUs - 1) helper
processes share the items with the calling process: every process takes the
lowest unclaimed item from a counter in shared memory, so one slow item
holds up no other.  A helper sends one reply per call, with the outcomes of
the items it took (none, if the caller took them all first), so the caller
reads exactly one reply from each helper that it asked.  Each item runs the
same function on the same inputs wherever it runs, so the outcomes equal
those of a serial run.

The helpers are forked on the first call with two or more items and then
persist, because a fork and join per call costs more than a typical call
saves.  They are daemonic, ignore SIGINT (the caller handles it) and exit
when their pipe reaches end of file, so none outlives the process that
forked them.  Any exception in the caller while helpers work, such as
KeyboardInterrupt, closes the pool, so no stale reply reaches a later call;
the next call forks new helpers.

The caller runs every item itself when a call has fewer than two items,
with one usable CPU (``os.sched_getaffinity``), without the ``fork`` start
method, in a daemonic process such as a helper, and in a call that another
thread or a nested call already has in progress.  A forked child never
writes to its parent's pipes: it closes its copies of them at the fork.
``multiprocessing`` is imported on the first call that could use a helper.

``fn`` must be a module-level function or a ``functools.partial`` of one,
which a call pickles once with the items for all its helpers.  The items
must pickle, and ``fn`` must not return an exception.  An outcome that does
not survive pickling is computed again by the caller.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading

_POOL = None    # this process's _Pool, created on the first call that may use it


def map_outcomes(fn, items) -> list:
    """[fn(item) or the Exception it raised, for item in items]."""
    items = list(items)
    pool = _helpers(len(items))
    if pool is None or not pool.busy.acquire(blocking=False):
        return [_outcome(fn, item) for item in items]
    try:
        return pool.map(fn, items)
    finally:
        pool.busy.release()


def _outcome(fn, item):
    try:
        return fn(item)
    except Exception as err:
        return err


def _helpers(n_items: int):
    """The pool with helpers for a call of ``n_items``, or None to run the
    call in this process alone."""
    global _POOL
    if n_items < 2:
        return None
    if _POOL is None:
        _POOL = _Pool()
        _POOL.start(_usable_cpus() - 1)
    return _POOL if _POOL.conns else None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forget_parent_pool() -> None:
    """In a forked child: close the child's copies of the parent's pipe
    ends, which only the parent may use; then the helpers see end of file
    when the parent exits, even while this child lives on."""
    global _POOL
    if _POOL is not None:
        for conn in _POOL.conns:
            conn.close()
        _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_parent_pool)


@contextlib.contextmanager
def _held(lock):
    # a process holds the claim lock for a few bytecodes, so a lock held
    # for a second is one whose holder was killed inside
    if not lock.acquire(timeout=1.0):
        raise TimeoutError("claim lock abandoned")
    try:
        yield
    finally:
        lock.release()


def _claims(lock, state, gen: int, n: int):
    """The items of call ``gen`` that this process claims, lowest first,
    until none is left or a newer call has begun."""
    while True:
        with _held(lock):
            if state[0] != gen or state[1] >= n:
                return
            i = state[1]
            state[1] = i + 1
        yield i


class _Pool:
    """Helper processes, the caller's ends of their pipes, and the claim
    counter that they share: [call number, next unclaimed item]."""

    def __init__(self):
        self.conns = []
        self.procs = []
        self.busy = threading.Lock()
        self.gen = 0

    def start(self, n_helpers: int) -> None:
        """Fork up to ``n_helpers`` helpers; none where none may run."""
        if n_helpers < 1:
            return
        import multiprocessing
        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon):
            return
        ctx = multiprocessing.get_context("fork")
        self.lock = ctx.Lock()
        self.state = ctx.RawArray("q", 2)
        for _ in range(n_helpers):
            ours, theirs = ctx.Pipe()
            # listed before the fork, so that the child closes its copy
            self.conns.append(ours)
            proc = ctx.Process(target=_serve, args=(theirs, self.lock, self.state),
                               name="crslab-helper", daemon=True)
            try:
                proc.start()
            except OSError:
                self.conns.pop().close()
                break
            finally:
                theirs.close()
            self.procs.append(proc)

    def map(self, fn, items: list) -> list:
        n = len(items)
        self.gen += 1
        request = pickle.dumps((self.gen, fn, items), pickle.HIGHEST_PROTOCOL)
        conns = self.conns[:n - 1]
        missing = object()
        outcomes = [missing] * n
        try:
            with _held(self.lock):
                self.state[0], self.state[1] = self.gen, 0
            for conn in conns:
                conn.send_bytes(request)
            for i in _claims(self.lock, self.state, self.gen, n):
                outcomes[i] = _outcome(fn, items[i])
            for conn in conns:
                for i, blob in conn.recv():
                    try:
                        outcomes[i] = pickle.loads(blob)
                    except Exception:
                        outcomes[i] = _outcome(fn, items[i])
        except (EOFError, OSError):
            # a helper died: run here whatever is left
            self.close()
        except BaseException:
            self.close()
            raise
        return [_outcome(fn, items[i]) if out is missing else out
                for i, out in enumerate(outcomes)]

    def close(self) -> None:
        """Stop the helpers; the next call forks new ones."""
        global _POOL
        if _POOL is self:
            _POOL = None
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.join()


def _serve(conn, lock, state) -> None:
    """A helper: until the pipe closes, answer each request with one list of
    (item, its pickled outcome, or None to have the caller run it again)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            gen, fn, items = pickle.loads(conn.recv_bytes())
            reply = []
            for i in _claims(lock, state, gen, len(items)):
                try:
                    blob = pickle.dumps(_outcome(fn, items[i]),
                                        pickle.HIGHEST_PROTOCOL)
                except Exception:
                    blob = None
                reply.append((i, blob))
            conn.send(reply)
    except (EOFError, OSError):
        pass    # the caller closed its end or exited
