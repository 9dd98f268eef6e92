"""The filesystem seam: every durable write goes through one object.

:class:`FileIO` is the real thing — atomic tempfile-rename writes and
plain appends, exactly the idioms :class:`~repro.store.store.ResultStore`
and :class:`~repro.service.jobs.JobStore` always used inline. Factoring
them behind an injectable object is what makes the control plane
chaos-testable: :class:`~repro.service.chaos.FaultyFS` subclasses this
and injects ENOSPC, torn writes, bit flips, and lost-rename-content
faults at the same two choke points, so every durability claim in the
store and service layers can be exercised against a misbehaving disk
without monkeypatching.

Reads stay plain ``open()`` calls everywhere: the failure modes worth
injecting are write-side (a bad read is indistinguishable from reading
a bad write), and keeping the seam minimal keeps the hot fetch path
free of indirection.

:class:`FileIO` is stateless and therefore pickles for free, which the
:class:`~repro.analysis.backends.ProcessPoolBackend` requires when a
store crosses into worker processes.
"""

from __future__ import annotations

import os
import tempfile


def tail_sealed(path: str) -> bool:
    """True when the file is empty/missing or ends in a newline.

    The shared torn-trailing-line probe for append-only NDJSON files
    (the store catalog and the job event stream): a writer killed
    mid-append leaves a final line with no newline, and the next append
    must seal it before writing or both records are lost.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) == b"\n"
    except OSError:  # missing file, or seek past start of empty file
        return True


class FileIO:
    """Real filesystem operations behind the store/service write paths."""

    def write_atomic(self, path: str, text: str,
                     prefix: str = ".tmp-") -> None:
        """Write ``text`` to ``path`` atomically (tempfile + replace).

        The tempfile lives in the destination directory so the final
        ``os.replace`` never crosses filesystems; a crash mid-write
        leaves at worst a ``<prefix>*`` orphan, never a half-written
        file at the live path.
        """
        directory = os.path.dirname(path) or "."
        try:
            fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=prefix,
                                            suffix=".json")
        except FileNotFoundError:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=prefix,
                                            suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def append(self, path: str, text: str) -> None:
        """Append ``text`` to ``path`` (creating parent dirs)."""
        try:
            fh = open(path, "a", encoding="utf-8")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fh = open(path, "a", encoding="utf-8")
        with fh:
            fh.write(text)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
