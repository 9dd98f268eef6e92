"""Deterministic seed derivation for scenario specs and sweeps.

Every stochastic component in the simulator (BBR probe phases, Allegro
RCT order, loss/reordering elements) takes an explicit integer seed. A
:class:`~repro.spec.scenario.ScenarioSpec` carries one *root* seed and
derives every component seed from it with :func:`derive_seed`, so:

* two builds of the same spec are bit-identical,
* two flows (or two path elements) never share an RNG stream, and
* the derivation is stable across processes and platforms — it uses
  SHA-256 over the path, never Python's randomized ``hash()`` — which
  is what makes ``--jobs N`` sweeps bit-identical to serial runs.

The *path* is a sequence of strings/ints naming the component's
position in the scenario tree, e.g. ``("flow", 0, "cca")`` or
``("link", "b1", 0)``.
"""

from __future__ import annotations

import hashlib
from typing import Union

PathPart = Union[str, int]

#: Derived seeds are 63-bit non-negative ints (fits any RNG API).
_SEED_BITS = 63


def derive_seed(root: int, *path: PathPart) -> int:
    """Derive a stable sub-seed from ``root`` and a component path.

    The same ``(root, path)`` always yields the same seed, in any
    process on any platform; different paths yield (with overwhelming
    probability) different seeds. Path parts may be strings or ints;
    ints and their string forms are distinct (``1 != "1"``).
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root)).encode("utf-8"))
    for part in path:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise TypeError(
                f"seed path parts must be str or int, got {part!r}")
        tag = "i" if isinstance(part, int) else "s"
        token = f"/{tag}:{part}"
        hasher.update(token.encode("utf-8"))
    digest = hasher.digest()
    return int.from_bytes(digest[:8], "big") >> (64 - _SEED_BITS)
