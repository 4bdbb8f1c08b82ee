"""Outside-in tracer: per-layer self time and work counters for geotits.

The tracer changes no file of the program.  ``Tracer.install`` replaces
the public functions of each layer module, and the public methods of
its classes, with timing wrappers; ``uninstall`` puts the originals
back.  A function imported by name into another module (for example
``smith_normal_form`` in ``complexes``, ``groups`` and ``resolution``)
is replaced there too, so every call path goes through one wrapper.

A span is one call of a wrapped function.  Its layer is the module that
defines the function.  Self time is the span's duration minus the
durations of the wrapped spans it encloses; time spent in unwrapped
helpers counts toward the innermost wrapped caller.  The pass itself is
the root span (layer ``bench``), so the self times of all layers sum to
the traced wall time.  Spans are aggregated as they close, not stored.

Counters are computed only from the arguments and return values of
wrapped calls (see ``COUNTERS``), so they do not depend on the machine.
"""

import importlib
import inspect
import time
from collections import defaultdict

# Layer name -> module.  ``kernel`` is the package ``geotits._kernel``
# (its elimination core lives in ``geotits._kernel.elim_py``).
LAYERS = {
    "exact": ("geotits.exact",),
    "geometry": ("geotits.geometry",),
    "collection": ("geotits.collection",),
    "arrangement": ("geotits.arrangement",),
    "complexes": ("geotits.complexes",),
    "groups": ("geotits.groups",),
    "kernel": ("geotits._kernel", "geotits._kernel.elim_py"),
    "resolution": ("geotits.resolution",),
    "cli": ("geotits.cli",),
}
ROOT_LAYER = "bench"

# Per-element helpers: each call is far shorter than a wrapper's own
# cost, and they run hundreds of thousands of times per corpus pass
# (``frac`` about 7M, ``dot`` about 370k, ``face`` 450k on the
# resolution workload).  Their time counts toward the calling layer.
SKIP = frozenset({
    "exact.frac", "exact.dot", "exact.vec_sub", "exact.vec_add", "exact.vec_scale",
    "exact.mat_vec", "exact.mat_mul",
    "arrangement.sign_key",
    "complexes.SphereTriangulation.top_cell",
    "complexes.SphereTriangulation.label_in_carrier",
    "resolution.face",
})

MARK = "__perfbench_original__"


def _count_snf(c, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    c["kernel.snf.nnz_in"] += len(matrix.entries)
    if args[1] if len(args) > 1 else kwargs.get("want_transforms", False):
        c["kernel.snf.transform_calls"] += 1
        c["kernel.snf.dense_transform_entries"] += matrix.rows ** 2 + matrix.cols ** 2


def _count_feasible(c, args, kwargs, result):
    if result is not None:
        c["exact.feasible.feasible"] += 1


def _count_closure(c, args, kwargs, result):
    coll = result[0] if isinstance(result, tuple) else result
    c["collection.closures"] += 1
    c["collection.members"] += len(coll.members)


def _count_arrangement(c, args, kwargs, result):
    c["arrangement.cells"] += len(result.cells)


def _count_apartments(c, args, kwargs, result):
    c["groups.apartment_cycles"] += result.matrix.cols


def _count_chain_complex(c, args, kwargs, result):
    self = args[0]
    c["complexes.cells"] += sum(len(labels) for labels in self.degrees.values())


def _count_solve(c, args, kwargs, result):
    c["kernel.solve_calls"] += 1


def _count_levels(c, args, kwargs, result):
    c["resolution.levels"] += sum(len(v) for v in result.values())


# Qualified name of a wrapped function -> counter hook.  Every wrapped
# function also gets ``<layer>.<name>.calls``.
COUNTERS = {
    "kernel.smith_normal_form": _count_snf,
    "exact.feasible": _count_feasible,
    "collection.closure_by_hyperplanes": _count_closure,
    "collection.closure_by_points": _count_closure,
    "arrangement.build_arrangement": _count_arrangement,
    "groups.apartment_matrix": _count_apartments,
    "complexes.ChainComplex.__init__": _count_chain_complex,
    "kernel.solve_int": _count_solve,
    "kernel.solve_rational": _count_solve,
    "resolution.levels": _count_levels,
}


# Metric name -> wrapped function whose calls it counts.
CALL_METRICS = {
    "exact.rref.calls": "exact.rref",
    "exact.signature_on_subspace.calls": "exact.signature_on_subspace",
    "exact.feasible.calls": "exact.feasible",
    "geometry.contains_vector.calls": "geometry.LinearSubspace.contains_vector",
    "geometry.span_points.calls": "geometry.span_points",
    "groups.apartment_matrix.calls": "groups.apartment_matrix",
    "kernel.snf.calls": "kernel.smith_normal_form",
    "complexes.homology.calls": "complexes.homology",
}
COUNTER_NAMES = (
    "exact.feasible.feasible", "arrangement.cells", "collection.closures",
    "collection.members", "groups.apartment_cycles", "kernel.snf.transform_calls",
    "kernel.snf.nnz_in", "kernel.snf.dense_transform_entries", "kernel.solve_calls",
    "complexes.cells", "resolution.levels",
)


def entry_points():
    """Yield (layer, qualified name, owner, attribute, function) for
    every entry point the tracer wraps, in a fixed order."""
    for layer, module_names in LAYERS.items():
        for module_name in module_names:
            module = importlib.import_module(module_name)
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module_name:
                    continue
                if inspect.isfunction(obj):
                    qual = f"{layer}.{name}"
                    if qual not in SKIP:
                        yield layer, qual, module, name, obj
                elif inspect.isclass(obj):
                    for attr, fn in sorted(vars(obj).items()):
                        # plain functions only: properties, static and
                        # class methods are accessors or per-element tests
                        if not inspect.isfunction(fn):
                            continue
                        if attr.startswith("_") and attr != "__init__":
                            continue
                        qual = f"{layer}.{name}.{attr}"
                        if qual not in SKIP:
                            yield layer, qual, obj, attr, fn


def installed_wrappers():
    """Number of tracer wrappers currently installed in geotits modules."""
    seen = 0
    for module_names in LAYERS.values():
        for module_name in module_names:
            module = importlib.import_module(module_name)
            for obj in vars(module).values():
                if hasattr(obj, MARK):
                    seen += 1
                elif inspect.isclass(obj):
                    seen += sum(1 for fn in vars(obj).values() if hasattr(fn, MARK))
    return seen


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.wall_s = None
        self._t0 = None

    # -- installation ---------------------------------------------------

    def install(self):
        originals = {}
        for layer, qual, owner, attr, fn in entry_points():
            wrapper = self._wrap(layer, qual, fn)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            originals[id(fn)] = (fn, wrapper)
        # by-name imports (``from geotits._kernel import smith_normal_form``)
        for module_names in LAYERS.values():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                for attr, obj in list(vars(module).items()):
                    hit = originals.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patches.append((module, attr, obj))
                        setattr(module, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    def _wrap(self, layer, qual, fn):
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        counts = self.counts
        hook = COUNTERS.get(qual)
        self_s.setdefault(layer, 0.0)
        calls.setdefault(qual, 0)

        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by enclosed spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                self_s[layer] += dt - frame[0]
                calls[qual] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, fn)
        return wrapper

    # -- the root span --------------------------------------------------

    def __enter__(self):
        self._stack.append([0.0])
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._t0
        root = self._stack.pop()
        self.self_s[ROOT_LAYER] = self.self_s.get(ROOT_LAYER, 0.0) + self.wall_s - root[0]
        return False

    # -- results ----------------------------------------------------------

    def totals(self):
        """Additive totals of the pass: self time per layer, call counts
        and counters, keyed by metric name."""
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0)
               for layer in list(LAYERS) + [ROOT_LAYER]}
        out.update({metric: self.calls.get(qual, 0) for metric, qual in CALL_METRICS.items()})
        out.update({name: self.counts[name] for name in COUNTER_NAMES})
        out["trace.wall_s"] = self.wall_s
        return out
