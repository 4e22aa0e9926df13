"""Per-layer tracing of the hvf modules, installed from outside the package.

Every public function and method of each hvf module is replaced by a wrapper
that times the call.  The layer of a call is the module that defines the
function.  A wrapper:

* counts the call (per function and per layer);
* adds its duration minus the time covered by wrapped child calls to the
  layer's self time, so the self times of all layers plus the unwrapped
  harness time add up to the traced wall time;
* records a span (name, start, end, parent span, operation id) when the call
  crosses a layer boundary, i.e. when its caller belongs to another layer,
  at most MAX_SPAN_DEPTH boundaries below the operation.  Calls within one
  layer, and crossings nested deeper, are counted and timed but not logged:
  their time is already in some layer's self time, so nothing is lost, and
  the log stays small (a catalogue pass crosses layers about 3 million times).

Names bound with ``from .x import y`` are replaced in every hvf module whose
namespace holds them, so the wrapper is found wherever the name is looked up.
Methods are wrapped on the class, which covers every instance and subclass.
``uninstall`` restores the originals.
"""

from __future__ import annotations

import importlib
import inspect
import struct
from array import array
from time import perf_counter

LAYERS = ("ambient", "spaceform", "fields", "tension", "solvers", "polyreduce", "exactnum", "cli")

# Dunder methods that do real work (construction, field arithmetic and
# comparison); the rest (repr, hashing helpers, setattr guards) are skipped.
WORK_DUNDERS = frozenset(
    "__init__ __add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ "
    "__rtruediv__ __neg__ __pow__ __lt__ __le__ __gt__ __ge__ __eq__ __float__".split()
)

ROOT_LAYER = len(LAYERS)  # the benchmark's own operation spans
MAX_SPAN_DEPTH = 2
SPAN_RECORD = struct.Struct("<iiiddi")  # span id, name id, parent span, start, end, operation id


def _public_callables(module):
    """(owner, attribute name, raw attribute, function) for what to wrap in `module`."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj, obj))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr not in WORK_DUNDERS:
                    continue
                fn = raw.fget if isinstance(raw, property) else getattr(raw, "__func__", raw)
                if inspect.isfunction(fn):
                    out.append((obj, attr, raw, fn))
    return out


class Tracer:
    """Holds the counters and the span log of one traced run."""

    def __init__(self):
        self.names: list[str] = ["op"]
        self.calls: list[int] = [0]
        self.inclusive_s: list[float] = [0.0]
        self.layer_calls = [0] * (len(LAYERS) + 1)
        self.layer_self_s = [0.0] * (len(LAYERS) + 1)
        self.sigma_evals = 0
        self.crossings = 0
        self._sigma_depth = 0
        self.op_id = -1
        # the span log, in compact columns
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_op = array("i")
        self._next_span = 0
        # stack frames: [layer, start, child time, span id (own or inherited), boundary depth]
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer_idx, layer in enumerate(LAYERS):
            for owner, attr, raw, fn in _public_callables(modules[layer]):
                fid = len(self.names)
                qual = fn.__qualname__ if owner is modules[layer] else f"{owner.__name__}.{attr}"
                self.names.append(f"{layer}.{qual}")
                self.calls.append(0)
                self.inclusive_s.append(0.0)
                wrapped = self._wrap(fn, fid, layer_idx, attr == "sigma" and owner is not modules[layer])
                if isinstance(raw, property):
                    new = property(wrapped, raw.fset, raw.fdel, raw.__doc__)
                elif isinstance(raw, staticmethod):
                    new = staticmethod(wrapped)
                elif isinstance(raw, classmethod):
                    new = classmethod(wrapped)
                else:
                    new = wrapped
                if owner is modules[layer]:
                    # rebind the function wherever a module namespace holds it
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is raw:
                                self._patch(ns, key, raw, new)
                else:
                    self._patch(owner, attr, raw, new)

    def _patch(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, fn, fid: int, layer: int, is_sigma: bool):
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not stack:  # outside an operation (set-up, answer checks): not measured
                return fn(*args, **kwargs)
            parent = stack[-1]
            depth = parent[4]
            span, parent_span = parent[3], None
            if parent[0] != layer:
                depth += 1
                tracer.crossings += 1
                if depth <= MAX_SPAN_DEPTH:
                    span, parent_span = tracer._next_span, parent[3]
                    tracer._next_span += 1
            if is_sigma:
                if tracer._sigma_depth == 0:
                    tracer.sigma_evals += 1
                tracer._sigma_depth += 1
            frame = [layer, 0.0, 0.0, span, depth]
            stack.append(frame)
            start = frame[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_sigma:
                    tracer._sigma_depth -= 1
                dur = end - start
                tracer.calls[fid] += 1
                tracer.inclusive_s[fid] += dur
                tracer.layer_calls[layer] += 1
                tracer.layer_self_s[layer] += dur - frame[2]
                parent[2] += dur
                if parent_span is not None:
                    tracer._log(fid, parent_span, start, end, span)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _log(self, fid, parent_span, start, end, span) -> None:
        # spans are appended on exit (post-order); ids are given in entry order
        self.span_id.append(span)
        self.span_name.append(fid)
        self.span_parent.append(parent_span)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_op.append(self.op_id)

    # -- operation roots -----------------------------------------------------

    def run_op(self, op_id: int, fn):
        """Run one benchmark operation under a root span; returns fn()."""
        self.op_id = op_id
        span = self._next_span
        self._next_span += 1
        frame = [ROOT_LAYER, 0.0, 0.0, span, 0]
        self._stack.append(frame)
        start = frame[1] = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.calls[0] += 1
            self.inclusive_s[0] += end - start
            self.layer_self_s[ROOT_LAYER] += (end - start) - frame[2]
            self._log(0, -1, start, end, span)

    # -- read-out ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the span log: a name table, then one fixed-size record per span."""
        with open(path, "wb") as fh:
            header = "\n".join(self.names).encode()
            fh.write(struct.pack("<ii", len(header), len(self.span_name)))
            fh.write(header)
            pack = SPAN_RECORD.pack
            for rec in zip(self.span_id, self.span_name, self.span_parent, self.span_start, self.span_end, self.span_op):
                fh.write(pack(*rec))
