"""Outside-in tracer for the koopmanmpc package.

The tracer edits no program file.  ``install`` replaces every public
function and method of the layer modules with a timing wrapper, and
``uninstall`` puts the originals back.  A function is matched by object
identity in every ``koopmanmpc.*`` namespace, so a function that another
module imported under its own name (``mpc.step`` and
``evaluation.run_episode`` are ``plant.step`` and ``plant.run_episode``)
is traced under its defining module's name wherever it is called from.

Spans (name, start, end, parent, op, scope) and counters stay in memory;
``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "koopmanmpc"
LAYERS = ("plant", "dataset", "nn", "deep_koopman", "edmd", "mpc", "evaluation", "cli")

# Private helpers that are hot paths of their own and get a span anyway.
PRIVATE_TRACED = {"mpc": ("_estimate_curvature",)}

# Called sixteen times per integration step: counted, never timed, so the
# tracer's own cost stays a small share of the plant's.  Their time stays
# in the self time of the caller (``plant.step``).
COUNT_ONLY = frozenset({"plant.vector_field", "plant.PlantModel.equilibrium"})


def traced_callables():
    """Yield (span name, owner, attribute, raw attribute value) for every
    public function and method defined in the layer modules.

    For a class attribute the raw value is what the class ``__dict__``
    holds, so a staticmethod comes back as the staticmethod object.
    """
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if not attr.startswith("_") or attr in PRIVATE_TRACED.get(layer, ()):
                    yield f"{layer}.{attr}", mod, attr, obj
            elif inspect.isclass(obj):
                for name, raw in list(vars(obj).items()):
                    if name.startswith("_"):
                        continue
                    if inspect.isfunction(raw) or isinstance(raw, staticmethod):
                        yield f"{layer}.{obj.__name__}.{name}", obj, name, raw


def package_namespaces():
    """Every loaded module of the package, the package itself included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Spans and counters recorded around the package's functions.

    ``op`` and ``scope`` are set by the caller before each operation: ``op``
    is the operation (request) index every span of that operation shares,
    and ``scope`` names the part of an operation, such as the model kind.
    ``hooks`` maps a span name to ``hook(tracer, args, kwargs, result)``,
    called after a successful call to derive counters from its arguments
    and result.
    """

    def __init__(self, hooks: dict | None = None):
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.op = -1
        self.scope = ""
        self._stack: list[int] = []
        self._patches: list = []
        self._wrappers: dict[str, object] = {}

    # -- wrapping

    def _span_wrapper(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = self.hooks.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op, self.scope)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[(self.scope, key)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, fn):
        if name not in self._wrappers:
            make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
            self._wrappers[name] = make(name, fn)
        return self._wrappers[name]

    def install(self) -> None:
        """Wrap every traced callable in every namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        by_id = {}
        for name, owner, attr, raw in traced_callables():
            if inspect.isclass(owner):
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            else:
                by_id[id(raw)] = (raw, self._wrap(name, raw))
        for mod in package_namespaces():
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results

    def span_rows(self):
        """Finished spans as (name, start, end, parent, op, scope)."""
        return [(self.names[s[0]],) + tuple(s[1:]) for s in self.spans]

    def summary(self) -> dict:
        """{(scope, name): [calls, total seconds, self seconds]}, where self
        time is the span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name_id, start, end, _, _, scope) in enumerate(self.spans):
            agg = out[(scope, self.names[name_id])]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        return dict(out)

    def dump(self, path, extra: dict | None = None) -> None:
        """Write spans, counters and ``extra`` as one JSON document."""
        doc = {
            "span_columns": ["name", "start", "end", "parent", "op", "scope"],
            "spans": self.span_rows(),
            "counters": [[scope, name, value] for (scope, name), value in sorted(self.counters.items())],
            **(extra or {}),
        }
        with open(path, "w") as f:
            json.dump(doc, f)
            f.write("\n")
