"""In-memory span recorder that wraps layer entry points for one run.

The benchmark never edits the program: a traced run replaces public
functions and methods with timing wrappers (:meth:`Tracer.wrap`) and
puts the originals back afterwards (:meth:`Tracer.restore`).  Each call
becomes one :class:`Span` with its start, end, parent span and request
id; spans stay in memory until :meth:`Tracer.dump` writes them out.

Request ids cross task and transport boundaries without touching the
wire format.  The benchmark's client task sets the id; ``asyncio``
copies it into every task that task creates.  Across a transport, the
frame encoder remembers which request each frame belongs to, the frame
decoder hands that id to the syndrome bitmap inside the message, and
the server task that unpacks the bitmap (the one serving the request)
adopts it.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import stats

Tag = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[int]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: request id of the work the current task is doing
        self.rid: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_rid", default=None
        )
        self._undo: List[Tuple[object, str, object]] = []
        #: id(frame bytes) -> (frame, request id, encode end) until the
        #: frame is decoded
        self._frames: Dict[int, Tuple[bytes, Optional[int], float]] = {}
        #: id(syndrome bitmap of a decoded request) -> (bitmap, request id)
        #: until the bitmap is unpacked
        self._bitmaps: Dict[int, Tuple[dict, int]] = {}

    # -- recording -----------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, attrs: Optional[dict] = None,
             rid: Optional[int] = None):
        """A span around a block; ``attrs`` may be filled in before exit.
        The span belongs to ``rid``, else to the current request id."""
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            self._current.reset(token)
            self.spans.append(Span(
                sid, name, start, end, parent,
                rid if rid is not None else self.rid.get(), attrs or {},
            ))

    def _instrument(self, fn, name: str, tag: Optional[Tag]):
        """A timing wrapper; ``tag(args, kwargs, result)`` adds attributes
        to the span of each call that returns."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                attrs: dict = {}
                with self.span(name, attrs):
                    result = await fn(*args, **kwargs)
                    if tag is not None:
                        attrs.update(tag(args, kwargs, result))
                    return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs: dict = {}
            with self.span(name, attrs):
                result = fn(*args, **kwargs)
                if tag is not None:
                    attrs.update(tag(args, kwargs, result))
                return result
        return wrapper

    # -- patching ------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str,
             tag: Optional[Tag] = None) -> None:
        """Time every call of ``owner.attr`` (a class or module member)."""
        self._set(owner, attr, self._instrument(
            owner.__dict__[attr], name, tag
        ))

    def wrap_function(self, module, attr: str, name: str,
                      tag: Optional[Tag] = None) -> None:
        """Time a module-level function everywhere it was imported."""
        self.replace_function(
            module, attr, lambda fn: self._instrument(fn, name, tag)
        )

    def replace_function(self, module, attr: str, make: Callable) -> None:
        """Replace ``module.attr`` by ``make(original)`` in every module.

        ``from x import f`` binds ``f`` in the importer's namespace, so
        every loaded ``repro`` module's binding of the same function
        object is replaced.
        """
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    mod is not None and mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped member back, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- request-id propagation through frames -------------------------
    def frame_encoder(self, original):
        """Wrapper for ``encode_frame`` that remembers each frame's
        request id and when it was encoded."""
        def encode_frame(message):
            attrs: dict = {}
            with self.span("protocol.encode_frame", attrs):
                frame = original(message)
                attrs["bytes"] = len(frame)
            self._frames[id(frame)] = (frame, self.rid.get(),
                                       time.monotonic())
            return frame
        return encode_frame

    def frame_decoder(self, original):
        """Wrapper for ``decode_frame``: the frame's request id passes to
        the syndrome bitmap the decoded message carries."""
        def decode_frame(frame):
            _, rid, sent = self._frames.pop(id(frame), (None, None, None))
            attrs = {"bytes": len(frame)}
            if sent is not None:
                # time the frame sat in the transport before being read
                attrs["transit"] = time.monotonic() - sent
            with self.span("protocol.decode_frame", attrs, rid=rid):
                message = original(frame)
            bitmap = message.get("syndromes")
            if rid is not None and isinstance(bitmap, dict):
                self._bitmaps[id(bitmap)] = (bitmap, rid)
            return message
        return decode_frame

    def bitmap_decoder(self, original):
        """Wrapper for ``unpack_bitmap``: the task unpacking a request's
        syndromes is the task serving it, so it adopts the request id
        (for the rest of that task, not just this call)."""
        def unpack_bitmap(obj):
            entry = self._bitmaps.pop(id(obj), None)
            if entry is not None:
                self.rid.set(entry[1])
            with self.span("protocol.unpack_bitmap"):
                return original(obj)
        return unpack_bitmap

    # -- analysis ------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the part its children cover."""
        children: Dict[int, list] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append((sp.start, sp.end))
        return {sp.sid: stats.self_time(sp.start, sp.end,
                                        children.get(sp.sid, ()))
                for sp in self.spans}

    # -- output --------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "sid": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "rid": s.rid,
                    **s.attrs,
                }) + "\n")
