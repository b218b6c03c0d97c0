"""repro.store — the persistent, content-addressed result store.

Layer 9 of the architecture: where the in-process memo caches
(the tensor backend's grid programs, the oracle cache) die with their
worker, this store persists completed unit results on disk, shared
across workers, across runs, and across the service daemon.  A
campaign run with ``store_policy="reuse"`` partitions its grid into
cached-vs-pending before dispatch; a warm re-run of an unchanged spec
executes zero units and assembles bit-identical stats straight from
the store, and a delta campaign (one device swapped, a few tests
added) executes only the units whose addresses changed.

Addresses are :func:`repro.env.runner.result_digest` over the
canonical :func:`repro.env.runner.result_key` — test structure ×
device configuration × environment × seed × iterations — plus the
backend's name and behaviour version, so nothing short of "this exact
computation" ever hits.

>>> from repro.store import ResultStore
>>> store = ResultStore("store")                    # doctest: +SKIP
>>> store.stats().describe()                        # doctest: +SKIP
'result store at store: 19200 object(s), ...'
"""

from repro.store.keys import content_fingerprint, unit_digests
from repro.store.store import (
    STORE_FORMAT,
    STORE_POLICIES,
    ResultStore,
    StoreError,
    StoreStats,
    open_store,
)

__all__ = [
    "STORE_FORMAT",
    "STORE_POLICIES",
    "ResultStore",
    "StoreError",
    "StoreStats",
    "content_fingerprint",
    "open_store",
    "unit_digests",
]
