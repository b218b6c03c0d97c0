"""In-memory span recording, and wrappers that record spans around
the program's public functions from outside the program.

Spans stay in per-thread buffers while the workload runs and are
written out once, after timing ends.  Each span records its name,
start, end and the enclosing span on the same thread.  A coroutine's
span has no parent and encloses nothing: other coroutines run on the
same thread while it waits.  Times are ``time.monotonic()`` readings,
one clock shared by every process.
"""

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from arith import Span

#: Modules whose bindings ``install`` and ``hook`` replace.
PROGRAM_PREFIXES: Tuple[str, ...] = ("repro",)


class _Buffer:
    """One thread's spans; indices are local to the buffer."""

    def __init__(self) -> None:
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: List[int] = []

    def open(self, name_id: int, now: float) -> int:
        index = len(self.names)
        self.names.append(name_id)
        self.starts.append(now)
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.stack.append(index)
        return index

    def close(self, index: int, now: float) -> None:
        self.ends[index] = now
        self.stack.pop()

    def add(self, name_id: int, start: float, end: float) -> None:
        """A finished span outside the stack (a coroutine's)."""
        self.names.append(name_id)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(-1)


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Counters bumped by result hooks (``store.hits`` and such).
        self.counts: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self._names)
                self._names.append(name)
            return self._ids[name]

    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _Buffer()
            self._local.buffer = buffer
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        buffer = self._buffer()
        index = buffer.open(self.name_id(name), time.monotonic())
        try:
            yield
        finally:
            buffer.close(index, time.monotonic())

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[["Tracer", Any], None]] = None,
    ) -> Callable[..., Any]:
        name_id = self.name_id(name)
        clock = time.monotonic
        buffer_for = self._buffer

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_coroutine(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    buffer_for().add(name_id, start, clock())
                if on_result is not None:
                    on_result(self, result)
                return result

            return traced_coroutine

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            buffer = buffer_for()
            index = buffer.open(name_id, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buffer.close(index, clock())
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def threads(self) -> List[List[Span]]:
        """Every thread's finished spans, parents as local indices."""
        out = []
        for buffer in self._buffers:
            out.append(
                [
                    (self._names[n], s, e, p)
                    for n, s, e, p in zip(
                        buffer.names, buffer.starts, buffer.ends,
                        buffer.parents,
                    )
                ]
            )
        return out

    def dump(self, path: Path) -> None:
        """Write all spans as JSON lines, one thread per line."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"counts": self.counts}) + "\n")
            for spans in self.threads():
                handle.write(json.dumps(spans) + "\n")


def span_of(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or a no-op context when not tracing."""
    return nullcontext() if tracer is None else tracer.span(name)


def load_dump(path: Path) -> Tuple[List[List[Span]], Dict[str, float]]:
    with open(path) as handle:
        counts = json.loads(handle.readline())["counts"]
        threads = [
            [tuple(span) for span in json.loads(line)]
            for line in handle
            if line.strip()
        ]
    return threads, counts


def _resolve(path: str) -> Tuple[Any, str, Any]:
    """``pkg.mod:Class.attr`` or ``pkg.mod:func`` → (owner, attr, value)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(
    tracer: Tracer,
    targets: List[Tuple[str, str, Optional[Callable[[Tracer, Any], None]]]],
) -> int:
    """Wrap each target wherever the loaded program refers to it.

    A method is wrapped on its class (and on every loaded subclass
    that overrides it, for abstract methods); a function is replaced
    in its own module and in every loaded module that imported it,
    under any name.  Returns the number of bindings replaced.
    """
    replaced = 0
    functions: Dict[int, Tuple[Any, Callable[..., Any]]] = {}
    for path, name, on_result in targets:
        owner, attr, value = _resolve(path)
        if isinstance(owner, type):
            classes = [owner] + _subclasses(owner)
            for cls in classes:
                if attr in cls.__dict__:
                    original = cls.__dict__[attr]
                    setattr(cls, attr, tracer.wrap(name, original, on_result))
                    replaced += 1
        else:
            functions[id(value)] = (
                value, tracer.wrap(name, value, on_result)
            )
    return replaced + _rebind(functions)


def hook(
    path: str,
    before: Optional[Callable[[], None]] = None,
    after: Optional[Callable[[Any], None]] = None,
) -> int:
    """Call ``before()`` on entry to the function at ``path`` and
    ``after(result)`` when it returns, wherever the loaded program
    refers to it (after ``install``, around its traced wrapper)."""
    _, _, value = _resolve(path)

    @functools.wraps(value)
    def hooked(*args: Any, **kwargs: Any) -> Any:
        if before is not None:
            before()
        result = value(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    return _rebind({id(value): (value, hooked)})


def _rebind(functions: Dict[int, Tuple[Any, Callable[..., Any]]]) -> int:
    """Replace every loaded program binding of each original function
    (keyed by ``id``) with its replacement."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name.startswith(PROGRAM_PREFIXES)
            or module_name == "__main__"
        ):
            continue
        for attr, value in list(vars(module).items()):
            hit = functions.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                replaced += 1
    return replaced


def _subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
