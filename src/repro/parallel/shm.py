"""Shared-memory array plumbing for the batched-staleness worker pool.

The pool moves the per-batch arrays (``phi``, ``traffic``, ``dadf``)
between the master and its worker processes through
:mod:`multiprocessing.shared_memory` blocks that are created **once** per
pool lifetime.  Per batch the only data that crosses the pickle boundary
is a few-byte task descriptor (phase name, shard bounds, the step scale);
every array read and write is a plain memcpy-free NumPy view into the
shared blocks.

:class:`SharedArraySet` owns creation/attachment symmetry: the master calls
:meth:`create` per array and ships ``specs`` (name -> (shm name, shape,
dtype)) to the workers through the pool initializer, where
:func:`attach_arrays` rebuilds the same views.
"""

from __future__ import annotations

import atexit
import weakref
from multiprocessing import shared_memory
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["ArraySpec", "SharedArraySet", "attach_arrays"]

# name -> (shared-memory block name, shape, dtype string)
ArraySpec = Dict[str, Tuple[str, Tuple[int, ...], str]]

# Every live master-side set, so a single atexit hook can unlink whatever a
# crashed or careless run left open.  Relying on __del__ alone is not
# enough: at interpreter shutdown the GC may never run it (reference
# cycles, re-raised exceptions holding frames alive), and then the resource
# tracker prints "leaked shared_memory objects" warnings and re-unlinks
# segments out from under the namespace.  The hook runs before the
# tracker's own atexit scan, so a clean interpreter exit stays silent.
_LIVE_SETS: "weakref.WeakSet[SharedArraySet]" = weakref.WeakSet()


@atexit.register
def _close_leaked_sets() -> None:
    for leaked in list(_LIVE_SETS):
        try:
            leaked.close()
        except Exception:
            pass


class _untracked_attach:
    """Suppress resource-tracker registration while attaching to a block.

    Attaching registers the segment with the resource tracker as if this
    process owned it (fixed upstream only in Python 3.13 via ``track=False``,
    bpo-39959).  With a forked pool the tracker process is *shared* with the
    master, so both a worker-exit cleanup attempt and a later ``unregister``
    from the worker corrupt the master's bookkeeping (double-unregister
    KeyErrors, spurious "leaked shared_memory" warnings).  Only the creating
    process may own the segment; workers must merely map it, so the cleanest
    fix on every affected version is to not register the attachment at all.
    """

    def __enter__(self) -> None:
        from multiprocessing import resource_tracker

        self._orig = resource_tracker.register

        def register(name: str, rtype: str) -> None:
            if rtype != "shared_memory":
                self._orig(name, rtype)

        resource_tracker.register = register

    def __exit__(self, *exc_info: object) -> None:
        from multiprocessing import resource_tracker

        resource_tracker.register = self._orig


class SharedArraySet:
    """The master-side bundle of named shared-memory NumPy arrays."""

    def __init__(self) -> None:
        self._blocks: Dict[str, shared_memory.SharedMemory] = {}
        self.arrays: Dict[str, np.ndarray] = {}
        self.specs: ArraySpec = {}
        _LIVE_SETS.add(self)

    def create(self, name: str, shape: Tuple[int, ...], dtype: str = "float64") -> np.ndarray:
        """Allocate one zero-initialised shared array and return its view."""
        nbytes = max(1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
        block = shared_memory.SharedMemory(create=True, size=nbytes)
        self._blocks[name] = block
        view: np.ndarray = np.ndarray(shape, dtype=dtype, buffer=block.buf)
        view.fill(0)
        self.arrays[name] = view
        self.specs[name] = (block.name, tuple(shape), str(dtype))
        return view

    def close(self) -> None:
        """Release the master's mappings and unlink every block."""
        # drop the array views first: a live view keeps the mmap referenced
        # and SharedMemory.close() would raise BufferError underneath it
        self.arrays.clear()
        self.specs.clear()
        for block in self._blocks.values():
            try:
                block.close()
                block.unlink()
            except FileNotFoundError:
                pass  # already unlinked (double close is allowed)
        self._blocks.clear()
        _LIVE_SETS.discard(self)


def attach_arrays(
    specs: ArraySpec,
) -> Tuple[Dict[str, np.ndarray], List[shared_memory.SharedMemory]]:
    """Worker-side mirror of :class:`SharedArraySet.create`.

    Returns the name -> array views plus the attached blocks (the caller must
    keep the blocks alive as long as the views are used, and close them on
    worker shutdown).
    """
    arrays: Dict[str, np.ndarray] = {}
    blocks: List[shared_memory.SharedMemory] = []
    for name, (shm_name, shape, dtype) in specs.items():
        with _untracked_attach():
            block = shared_memory.SharedMemory(name=shm_name, create=False)
        blocks.append(block)
        arrays[name] = np.ndarray(shape, dtype=dtype, buffer=block.buf)
    return arrays, blocks
