"""Outside-in span tracer for the patchvote package.

The tracer changes no program file. `install` replaces every public
module-level function of the traced layers with a timing wrapper, both
in the module that defines it and in every patchvote module that bound
the same function object with `from .x import f`, so calls from one
layer into another are seen too. `uninstall` restores the originals.

Each call records a span: name, start, end and the span that was open
when it began. A generator function gets one span per resume, so the
work done while a consumer iterates it is charged to it, and one call
per generator created. A layer's self time is its span time minus the
part its child spans cover.

Probes attach counts to a boundary: a probe is called with the tracer,
the call's arguments and its result, after the call returns and while
its span is still open, so `tracer.inside(name)` sees the caller chain.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("render", "descriptor", "embed", "experiment", "index", "views")


class Tracer:
    def __init__(self, package: str = "patchvote", probes: dict | None = None):
        self.package = package
        self.probes = probes or {}
        # span rows: [name, start, end, parent index, child seconds]
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[sid]
        span[2] = end
        if span[3] >= 0:
            self.spans[span[3]][4] += end - span[1]

    def _probe(self, name: str, args, kwargs, result) -> None:
        probe = self.probes.get(name)
        if probe is not None:
            probe(self, args, kwargs, result)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    sid = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException as exc:
                        self.errors[f"{name}.{type(exc).__name__}"] += 1
                        raise
                    finally:
                        self._close(sid)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
                self._probe(name, args, kwargs, result)
                return result
            except BaseException as exc:
                self.errors[f"{name}.{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(sid)

        return wrapper

    def inside(self, name: str) -> bool:
        """True when a span called `name` is open on the current stack."""
        return any(self.spans[sid][0] == name for sid in self._stack)

    # -- aggregation ------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-name inclusive seconds ("s") and self seconds ("self_s")."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0}
        )
        for name, start, end, _, child in self.spans:
            row = out[name]
            row["s"] += end - start
            row["self_s"] += end - start - child
        return dict(out)

    def check_nesting(self, tol: float = 1e-6) -> bool:
        """Each child lies inside its parent, and the self times of every
        root's subtree add up to that root's duration."""
        subtree_self = [0.0] * len(self.spans)
        for sid in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, child = self.spans[sid]
            if end < start or end - start - child < -tol:
                return False
            subtree_self[sid] += end - start - child
            if parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    return False
                subtree_self[parent] += subtree_self[sid]
        for sid, (_, start, end, parent, _) in enumerate(self.spans):
            if parent < 0 and abs(subtree_self[sid] - (end - start)) > tol * (
                1 + len(self.spans)
            ):
                return False
        return True

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, p, _ in self.spans if p < 0)
