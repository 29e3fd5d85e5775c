"""In-memory spans recorded around calls into the program's layers.

A span is ``(name, start, end, parent, request id)``.  The traced run
installs wrappers on the objects a workload built (or, for calls made
while a table is being built, on the classes for the length of the
build); each wrapper opens a span before the call and closes it after.
A span's parent is the span open on the same thread when it started,
so a layer's self time is its duration minus its children's durations.
Spans stay in memory and are written out once, when the run ends.

Nothing in this module is installed during an untraced run.
"""

from __future__ import annotations

import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

_perf = time.perf_counter


class SpanLog:
    """Append-only span store shared by the loop thread and executor
    threads.  Index ``i`` of every column describes span ``i``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._request = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = 0
        #: serving: id(SearchResult) -> batch id, filled while a traced
        #: batch materializes and read by the request that received it.
        self.result_batch: Dict[int, int] = {}
        #: serving: request span -> id of the batch that answered it.
        self.answered: Dict[int, int] = {}
        #: ip-churn: update span -> copies the delete/insert reported.
        self.copies: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._start)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_context(self, parent: int = -1, request: int = -1) -> None:
        """Parent and request id for spans opened on this thread while no
        span is open on it (a request coroutine, an executor job)."""
        self._local.parent = parent
        self._local.request = request

    def begin(
        self,
        name: str,
        start: Optional[float] = None,
        parent: Optional[int] = None,
        request: Optional[int] = None,
    ) -> int:
        """Open a span (its end stays NaN until :meth:`finish`)."""
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else getattr(self._local, "parent", -1)
        if request is None:
            request = (
                self._request[parent]
                if parent >= 0
                else getattr(self._local, "request", -1)
            )
        name_id = self._name_ids.get(name)
        with self._lock:
            if name_id is None:
                name_id = self._name_ids.setdefault(name, len(self.names))
                if name_id == len(self.names):
                    self.names.append(name)
            index = len(self._start)
            self._name.append(name_id)
            self._start.append(_perf() if start is None else start)
            self._end.append(float("nan"))
            self._parent.append(parent)
            self._request.append(request)
        return index

    def finish(self, index: int, end: Optional[float] = None) -> None:
        self._end[index] = _perf() if end is None else end

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[int] = None,
    ) -> int:
        """Record a span that has already ended."""
        index = self.begin(name, start, parent, request)
        self.finish(index, end)
        return index

    def new_id(self) -> int:
        """A fresh request (or batch) id."""
        with self._lock:
            self._ids += 1
            return self._ids

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span named ``name``; ``after(result, span)``
        may replace the result (used to time calls on the result)."""
        stack_of = self._stack

        def timed(*args, **kwargs):
            index = self.begin(name)
            stack = stack_of()
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.finish(index)
            return result if after is None else after(result, index)

        return timed

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """Every span as numpy columns, with ``duration`` and ``self``
        (duration minus the durations of the span's children)."""
        start = np.frombuffer(self._start, dtype=np.float64).copy()
        end = np.frombuffer(self._end, dtype=np.float64).copy()
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.int64)
        duration = end - start
        children = parent >= 0
        child_time = np.bincount(
            parent[children],
            weights=duration[children],
            minlength=len(start),
        )
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "parent": parent,
            "request": np.frombuffer(self._request, dtype=np.int64).copy(),
            "duration": duration,
            "self": duration - child_time,
        }

    def name_mask(self, names: np.ndarray, *wanted: str) -> np.ndarray:
        ids = [self._name_ids[w] for w in wanted if w in self._name_ids]
        return np.isin(names, ids)

    def write(self, path: str) -> None:
        columns = self.columns()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: columns[k] for k in ("name", "start", "end", "parent", "request")},
        )


class TimedResults:
    """Stands in for a ``BatchResultSet`` so that the calls made on it
    (``results()``, ``data_values()``) are timed as the
    ``core.results`` layer.  Every other attribute reads through."""

    __slots__ = ("_inner", "_spans", "_tag")

    def __init__(self, inner, spans: SpanLog, tag: bool) -> None:
        self._inner = inner
        self._spans = spans
        self._tag = tag

    def results(self):
        spans = self._spans
        results = spans.wrap("core.results.materialize", self._inner.results)()
        if self._tag:
            batch = getattr(spans._local, "request", -1)
            table = spans.result_batch
            for result in results:
                table[id(result)] = batch
        return results

    def data_values(self):
        return self._spans.wrap("core.results.values", self._inner.data_values)()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedExecutor(ThreadPoolExecutor):
    """A default-sized thread pool that records, for every job, the span
    from ``submit`` to the moment a worker starts it, and gives the job
    a fresh batch id that its spans carry as their request id."""

    def __init__(self, spans: SpanLog) -> None:
        super().__init__(thread_name_prefix="asyncio")
        self._spans = spans

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(self._run, _perf(), fn, args, kwargs)

    def _run(self, submitted: float, fn, args, kwargs):
        spans = self._spans
        started = _perf()
        batch = spans.new_id()
        spans.add("serving.executor.handoff", submitted, started, -1, batch)
        spans.set_context(request=batch)
        try:
            return fn(*args, **kwargs)
        finally:
            spans.set_context()


Patch = Tuple[object, str, Callable]


class installed:
    """Install ``(owner, attribute, replacement)`` patches for the length
    of a ``with`` block and restore the originals after it.  An instance
    attribute shadows the class method; a class attribute is swapped and
    put back exactly as it was (staticmethods included)."""

    def __init__(self, patches: Sequence[Patch]) -> None:
        self._patches = list(patches)
        self._saved: List[Tuple[object, str, bool, object]] = []

    def __enter__(self) -> "installed":
        for owner, attribute, replacement in self._patches:
            had = attribute in vars(owner)
            self._saved.append(
                (owner, attribute, had, vars(owner).get(attribute))
            )
            setattr(owner, attribute, replacement)
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attribute, had, original in reversed(self._saved):
            if had:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._saved.clear()
        return False


def method_patch(spans: SpanLog, cls: type, attribute: str, name: str) -> Patch:
    """Class-level patch timing every call of ``cls.attribute``."""
    original = vars(cls)[attribute]
    if isinstance(original, staticmethod):
        return (cls, attribute, staticmethod(spans.wrap(name, original.__func__)))
    return (cls, attribute, spans.wrap(name, original))


def instance_patch(
    spans: SpanLog, obj: object, attribute: str, name: str, after=None
) -> Patch:
    """Instance-level patch timing calls of ``obj.attribute``."""
    return (obj, attribute, spans.wrap(name, getattr(obj, attribute), after))


def hash_patches(spans: SpanLog, hash_function: object) -> Iterator[Patch]:
    """Time the vectorized entry points of a group's hash instance."""
    for attribute in ("index_many", "index_words"):
        if hasattr(hash_function, attribute):
            yield instance_patch(spans, hash_function, attribute, "hashing")
