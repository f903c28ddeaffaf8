"""Shared-memory backing for the chip's cell arrays.

The functional state of a :class:`~repro.dram.chip.DramChip` is two
numpy arrays per subarray: the packed ``uint64`` cell contents and the
``float64`` per-row restore timestamps.  :class:`SharedRowStore` places
*all* of them in one ``multiprocessing.shared_memory`` segment, laid out
as::

    cells   : uint64 [banks, subarrays, storage_rows, words_per_row]
    restore : float64[banks, subarrays, storage_rows]

Each :class:`~repro.dram.subarray.Subarray` is then constructed over a
*view* into the segment, so a worker process that attaches to the same
segment by name shares the parent's address space with zero copies:
the fused kernel computes in place on views of the segment, so its
writes land straight in the shared buffer, and the only data that
crosses the process boundary is the (tiny) description of which rows
to operate on.

Shard safety comes from *partitioning*, not locking: the
:class:`~repro.parallel.device.ShardedDevice` hands each worker a
disjoint set of banks, so no two processes ever write the same
(bank, subarray) slice concurrently.

Lifecycle
---------
The creating process **owns** the segment: :meth:`release` (called by
:meth:`AmbitDevice.close() <repro.core.device.AmbitDevice.close>`)
closes *and unlinks* it, and a GC/interpreter-exit finalizer does the
same if the owner forgets.  Attached (worker-side) stores only detach.
The finalizer is pid-guarded so a forked worker exiting cannot unlink a
segment it merely inherited.  Workers share the owner's
``resource_tracker`` (fork and spawn both hand its fd down), so
attach-side tracking is a harmless idempotent set-add that the owner's
single unlink balances.

:func:`live_segment_names` / :func:`system_segments` power the test
suite's leak-check fixture: after every test, no segment created by this
process may remain.
"""

from __future__ import annotations

import os
import secrets
import weakref
from multiprocessing import shared_memory
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.dram.geometry import DramGeometry
from repro.errors import ConfigError

#: Segment-name prefix; includes the creating pid so concurrent test
#: runs (and the leak checker) never collide with another process.
NAME_PREFIX = f"ambit-shm-{os.getpid()}"

#: Names of segments created *and not yet unlinked* by this process.
_LIVE: Set[str] = set()


def _layout(geometry: DramGeometry) -> Tuple[Tuple[int, ...], Tuple[int, ...], int, int]:
    """(cells shape, restore shape, restore byte offset, total bytes)."""
    sub = geometry.subarray
    cells_shape = (
        geometry.banks,
        geometry.subarrays_per_bank,
        sub.storage_rows,
        sub.words_per_row,
    )
    restore_shape = cells_shape[:3]
    cells_bytes = int(np.prod(cells_shape)) * 8
    restore_bytes = int(np.prod(restore_shape)) * 8
    return cells_shape, restore_shape, cells_bytes, cells_bytes + restore_bytes


def _cleanup(segment: shared_memory.SharedMemory, name: str, owner: bool, pid: int) -> None:
    """Unlink (owner) and detach a segment.

    Runs from :meth:`SharedRowStore.release`, GC, or interpreter exit.
    The pid guard matters with the ``fork`` start method: a worker that
    inherited the owner's store object must not unlink the real segment
    when *its* interpreter exits.  Unlink happens *first* -- POSIX keeps
    the memory alive until the last mapping dies, so the ``/dev/shm``
    entry disappears immediately even if live numpy views (which make
    ``close()`` raise :class:`BufferError`) pin the mapping for a while.
    """
    if owner and os.getpid() == pid:
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        _LIVE.discard(name)
    try:
        segment.close()
    except (OSError, BufferError):
        # Subarray views may still reference the buffer; the mapping is
        # reclaimed when they are garbage collected.
        pass




class SharedRowStore:
    """All cell state of one device geometry in one shared segment.

    Build with :meth:`create` (owner) or :meth:`attach` (worker); use as
    the ``row_store`` argument of :class:`~repro.core.device.AmbitDevice`.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        geometry: DramGeometry,
        owner: bool,
    ):
        cells_shape, restore_shape, restore_offset, nbytes = _layout(geometry)
        if segment.size < nbytes:
            raise ConfigError(
                f"segment {segment.name!r} holds {segment.size} bytes; "
                f"geometry needs {nbytes}"
            )
        self.geometry = geometry
        self.owner = owner
        self._segment = segment
        self._cells = np.ndarray(
            cells_shape, dtype=np.uint64, buffer=segment.buf
        )
        self._restore = np.ndarray(
            restore_shape, dtype=np.float64, buffer=segment.buf,
            offset=restore_offset,
        )
        self._finalizer = weakref.finalize(
            self, _cleanup, segment, segment.name, owner, os.getpid()
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, geometry: DramGeometry) -> "SharedRowStore":
        """Allocate a zero-filled segment sized for ``geometry``."""
        *_, nbytes = _layout(geometry)
        name = f"{NAME_PREFIX}-{secrets.token_hex(4)}"
        segment = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        _LIVE.add(name)
        return cls(segment, geometry, owner=True)

    @classmethod
    def attach(cls, name: str, geometry: DramGeometry) -> "SharedRowStore":
        """Map an existing segment (worker side; never unlinks).

        Pre-3.13 CPython registers attachments with the resource
        tracker too; because every worker inherits the *owner's*
        tracker (fork and spawn both pass its fd down), the
        registration is an idempotent set-add there and the owner's
        single ``unlink`` balances it -- no per-attach unregister is
        needed, and attempting one would double-remove the name.
        """
        segment = shared_memory.SharedMemory(name=name)
        return cls(segment, geometry, owner=False)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._segment.name

    def cells(self, bank: int, subarray: int) -> np.ndarray:
        """The ``(storage_rows, words_per_row)`` uint64 view of one subarray."""
        return self._cells[bank, subarray]

    def restore(self, bank: int, subarray: int) -> np.ndarray:
        """The ``(storage_rows,)`` float64 restore-timestamp view."""
        return self._restore[bank, subarray]

    @property
    def nbytes(self) -> int:
        return self._segment.size

    @property
    def live(self) -> bool:
        """True while the mapping is still attached."""
        return self._finalizer.alive

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def release(self) -> None:
        """Detach; the owning process also unlinks.  Idempotent."""
        # Views into the buffer must be dropped before close() or CPython
        # raises BufferError on the exported memoryview.
        self._cells = None  # type: ignore[assignment]
        self._restore = None  # type: ignore[assignment]
        self._finalizer()

    close = release

    def __enter__(self) -> "SharedRowStore":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


# ----------------------------------------------------------------------
# Leak checking
# ----------------------------------------------------------------------
def live_segment_names() -> Set[str]:
    """Names of segments this process created and has not unlinked."""
    return set(_LIVE)


def system_segments() -> List[str]:
    """Segments of this process still present under ``/dev/shm``."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    return sorted(
        entry for entry in os.listdir(shm_dir)
        if entry.startswith(NAME_PREFIX)
    )
