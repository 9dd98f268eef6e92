"""Advisory file locking for cross-process store writes.

:class:`~repro.analysis.backends.ProcessPoolBackend` workers share one
store directory. Object writes are already safe against torn reads
(tempfile + atomic ``os.replace``), but two writers replacing the same
key, and especially interleaved appends to the JSONL catalog, want
mutual exclusion. POSIX ``flock`` gives it cheaply; on platforms
without ``fcntl`` the lock degrades to the in-process lock alone (the
atomic-rename object layout remains correct across processes, only
catalog lines from *separate* processes may interleave).

An ``flock`` belongs to an open file description, not a process: two
``os.open`` calls on one path conflict even within one process. The
sweep *service*'s HTTP handlers and dispatcher are threads of one
process, and each path also gets a process-local
:class:`threading.Lock`, taken *before* the flock: threads serialize on
the former, processes on the latter. :func:`try_lock` holds a
service's job directory for the daemon's lifetime.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Dict, Iterator, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: One lock per lock-file path, shared by every thread in the process.
_THREAD_LOCKS: Dict[str, threading.Lock] = {}
_THREAD_LOCKS_GUARD = threading.Lock()


def _thread_lock(path: str) -> threading.Lock:
    with _THREAD_LOCKS_GUARD:
        lock = _THREAD_LOCKS.get(path)
        if lock is None:
            lock = _THREAD_LOCKS[path] = threading.Lock()
        return lock


@contextlib.contextmanager
def advisory_lock(path: str) -> Iterator[None]:
    """Hold an exclusive advisory lock on ``path`` (created if absent).

    Mutual exclusion is two-level: a process-local ``threading.Lock``
    (for threads of this process) and then the POSIX ``flock`` itself
    (for pool workers and unrelated processes). Blocks until both are
    granted. Reentrant use within one thread is *not* supported — keep
    critical sections small and flat.
    """
    path = os.path.abspath(path)
    with _thread_lock(path):
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        try:
            fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                yield
            finally:
                with contextlib.suppress(OSError):
                    fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


def try_lock(path: str) -> Optional[int]:
    """Exclusively ``flock`` ``path`` itself (a directory works), or
    raise :class:`BlockingIOError` at once if another open file holds it.

    Returns the descriptor: closing it, or the process dying, unlocks.
    Without ``fcntl`` nothing is locked and the result is None.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        return None
    fd = os.open(path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        os.close(fd)
        raise
    return fd
