"""Versioned, process-portable machine-state snapshots.

A snapshot is a plain dict — ``{"version": 2, "kind": "<family>/<backend>",
...state...}`` — holding everything a paused resumable execution needs to
continue somewhere else: heap cells, environments, continuation/work/value
stacks, step accounting, and the remaining fuel, all as picklable data.
Compiled machine code is *never* in the payload: a snapshot holds plain
state plus the program syntax, and only a restore compiles (deterministically,
so saved program counters and node indexes stay valid), so a snapshot taken
in one process restores in any other.  Taking a snapshot never compiles.

The ``kind`` tag names the exact machine that wrote the snapshot and, by
convention, ends in the backend name it is registered under — e.g.
``"lcvm/cek-compiled"`` restores through the lcvm registry's
``"cek-compiled"`` backend.  :func:`snapshot_backend_name` relies on that
convention so a :meth:`repro.core.language.TargetBackend.restore` call can
route a bare snapshot without being told the backend.

Two copy disciplines, both built on one pickle round-trip
(:func:`plain_copy`):

* ``snapshot()`` copies its state *out* so the snapshot never aliases the
  live machine (stepping on after a snapshot must not mutate it);
* ``from_snapshot()`` copies the state *in* again, so one snapshot restores
  any number of independent executions — two restores never share a heap.

Only *mutable* state is copied.  Program syntax is immutable (the frozen
dataclasses registered through :func:`share_by_reference`, and tuples made
only of them, such as a StackLang ``Program``), so the round-trip passes it
through by reference instead of rebuilding the whole AST at every slice
boundary.  Heaps, stacks, environments, frames and runtime values are still
copied.  Pickling a snapshot for another process (``pickle.dumps``) is
untouched: the shared syntax is serialized with the rest of the state.

A single round-trip of the whole state dict preserves the object graph's
internal sharing (a subtree reachable twice stays one object after the
copy), which the id-keyed analyses (big-step's ``_analyze`` memo, the
compiled-CEK node tables) rely on.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, Dict, FrozenSet, List, Set

#: Bump when the snapshot state layout changes incompatibly; restores check
#: it and refuse snapshots written by a different layout.
SNAPSHOT_VERSION = 2

#: Syntax classes whose instances :func:`plain_copy` shares by reference.
_SHARED: Set[type] = set()


def share_by_reference(*classes: type) -> None:
    """Register frozen syntax dataclasses that snapshot copies may share.

    Only frozen dataclasses qualify: an instance that could change after the
    snapshot was taken would leak the live machine's later state into it.
    """
    for cls in classes:
        params = getattr(cls, "__dataclass_params__", None)
        if params is None or not params.frozen:
            raise TypeError(f"{cls.__name__} is not a frozen dataclass; snapshots must copy it")
        _SHARED.add(cls)


def shared_classes() -> FrozenSet[type]:
    """The classes :func:`plain_copy` currently shares by reference."""
    return frozenset(_SHARED)


def plain_copy(state: Any) -> Any:
    """One pickle round-trip: copy the mutable state, share the syntax.

    A deep copy preserving internal sharing, except that registered syntax
    nodes (and tuples made only of them) come back as the very same objects.
    """
    shared: List[Any] = []

    def persistent_id(obj: Any) -> Any:
        kind = type(obj)
        if kind in _SHARED or (kind is tuple and obj and _SHARED.issuperset(map(type, obj))):
            shared.append(obj)
            return len(shared) - 1
        return None

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = persistent_id
    pickler.dump(state)
    buffer.seek(0)
    unpickler = pickle.Unpickler(buffer)
    unpickler.persistent_load = shared.__getitem__
    return unpickler.load()


def make_snapshot(kind: str, state: Dict[str, Any]) -> Dict[str, Any]:
    """Assemble a versioned snapshot dict around a *copy* of ``state``."""
    snapshot = {"version": SNAPSHOT_VERSION, "kind": kind}
    snapshot.update(plain_copy(state))
    return snapshot


def check_snapshot(snapshot: Any, kind: str) -> Dict[str, Any]:
    """Validate a snapshot's kind/version; return a defensive copy of it.

    The copy is what makes one snapshot restorable many times over: each
    restore installs its own object graph, so two executions restored from
    the same snapshot never share a mutable heap or stack.
    """
    if not isinstance(snapshot, dict):
        raise ValueError(f"not a snapshot: {type(snapshot).__name__}")
    found = snapshot.get("kind")
    if found != kind:
        raise ValueError(f"snapshot kind {found!r} cannot restore a {kind!r} machine")
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {version!r} (this build reads version {SNAPSHOT_VERSION})"
        )
    return plain_copy(snapshot)


def snapshot_backend_name(snapshot: Any) -> str:
    """The backend name a snapshot restores under: the ``kind``'s last segment."""
    if not isinstance(snapshot, dict) or not isinstance(snapshot.get("kind"), str):
        raise ValueError(f"not a snapshot: {type(snapshot).__name__}")
    return snapshot["kind"].rsplit("/", 1)[-1]
