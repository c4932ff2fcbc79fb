"""Per-layer tracing of chaninv from outside the library.

The tracer wraps each public function named in ``LAYERS`` and rebinds the
wrapper under every name that points at the original, in every loaded
``chaninv`` module (for example ``chaninv.theorems.drazin_inverse``,
``chaninv.cli.mp_inverse`` and ``chaninv.ginv.svd``). A wrapped call records
a span: name, parent span, start and end. Spans stay in memory, in compact
arrays, until the run ends. ``numpy.linalg.svd`` gets a counting probe
rather than a span, so the LAPACK time stays in the self time of the chaninv
function that called it.

A layer's self time is its span's duration minus the time its child spans
cover. ``uninstall`` restores every name that ``install`` rebound.
"""

import functools
import time
from array import array

import numpy as np

LAYERS = {
    "linalg": ("as_cmatrix", "svd", "rank", "eigh", "kron"),
    "ginv": (
        "mp_inverse",
        "drazin_inverse",
        "group_inverse",
        "dagger_drazin",
        "drazin_index",
        "verify_axioms",
    ),
    "channels": (
        "Channel.__post_init__",
        "kraus_to_channel",
        "compose",
        "choi",
        "is_cp",
        "is_tp",
        "is_unital",
        "property_report",
        "random_cptp",
        "random_ucptp",
        "channel_from_dict",
        "channel_to_dict",
    ),
    "theorems": (
        "check_drazin_preserves_tp_u",
        "check_drazin_cp_loss",
        "check_intertwiner_propagation",
        "check_dagger_drazin_preserves_tpu",
        "check_mp_tpu_iff",
        "check_orthogonal_sum",
        "check_pure_channel_lemma",
        "check_projector_self_inverse",
        "check_group_double_inverse",
        "check_double_inverse_gap",
        "search_mp_tp_violation",
        "draw_cptp",
        "draw_ucptp",
    ),
    "cli": ("main",),
}

INVERSE_KINDS = ("mp_inverse", "drazin_inverse", "group_inverse", "dagger_drazin")
INDEXED_KINDS = ("drazin_inverse", "group_inverse", "dagger_drazin")
DRAWS = ("draw_cptp", "draw_ucptp")
RANDOM_CHANNELS = ("random_cptp", "random_ucptp")


def span_names():
    """Every traced span name, ``<module>.<function>``, in ``LAYERS`` order."""
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def metric_units():
    """Name -> unit of every per-layer metric, in emission order."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_ms"] = "ms/op"
    units["lapack.svd.calls"] = "count/op"
    units["ginv.errors"] = "count/op"
    units["ginv.index_searches_per_inverse"] = "ratio"
    units["ginv.svd_per_inverse"] = "ratio"
    units["theorems.draws_per_instance"] = "ratio"
    units["theorems.guarded_errors"] = "count/op"
    units["trace.ops_per_s"] = "1/s"
    return units


class Tracer:
    """Span recorder for the functions in ``LAYERS``; inactive until ``install``."""

    def __init__(self):
        self.names = span_names()
        self._ids = {n: i for i, n in enumerate(self.names)}
        self._module_of = [n.split(".", 1)[0] for n in self.names]
        self.missing = []
        self.active = False
        self._restore = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_raised = array("b")
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        # frames: [span index, name id, child ns, entered ginv from outside]
        self._stack = []
        self._ginv_depth = 0
        self.lapack_svd = 0
        self.lapack_svd_in_ginv = 0
        self.index_searches_in_ginv = 0
        self.ginv_errors = 0
        self.certified = {k: 0 for k in INVERSE_KINDS}
        self.draws = 0
        self.guarded_errors = 0

    # -- installation --------------------------------------------------------

    def install(self, modules):
        """Rebind every traced function in ``modules``; return self.

        ``modules`` maps a layer name to its chaninv module, plus "package"
        for the ``chaninv`` package itself.
        """
        if self._restore:
            raise RuntimeError("tracer is already installed")
        ginv = modules["ginv"]
        # a missing group inverse is an answer, not a certification failure
        self._ginv_error, self._no_group_inverse = ginv.GinvError, ginv.IndexTooLargeError
        namespaces = list(modules.values())
        for layer, fns in LAYERS.items():
            module = modules[layer]
            for fn_name in fns:
                name_id = self._ids[f"{layer}.{fn_name}"]
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(module, cls_name, None)
                    orig = None if cls is None else cls.__dict__.get(meth)
                    if orig is None:
                        self.missing.append(f"{layer}.{fn_name}")
                        continue
                    self._rebind(cls, meth, orig, self._span_wrapper(orig, name_id))
                    continue
                orig = getattr(module, fn_name, None)
                if orig is None:
                    self.missing.append(f"{layer}.{fn_name}")
                    continue
                wrapper = self._span_wrapper(orig, name_id)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._rebind(ns, attr, orig, wrapper)
        self._rebind(np.linalg, "svd", np.linalg.svd, self._svd_probe(np.linalg.svd))
        return self

    def uninstall(self):
        """Put back every original that ``install`` replaced."""
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)
        self.active = False

    def _rebind(self, owner, attr, orig, wrapper):
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name_id):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(exc)
                raise
            tracer._exit(None)
            return result

        return traced

    def _svd_probe(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.lapack_svd += 1
                if tracer._ginv_depth:
                    tracer.lapack_svd_in_ginv += 1
            return fn(*args, **kwargs)

        return counted

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self, name_id):
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_raised.append(0)
        self.span_end.append(0)
        in_ginv = self._module_of[name_id] == "ginv"
        boundary = in_ginv and self._ginv_depth == 0
        if in_ginv:
            if self._ginv_depth and self.names[name_id] == "ginv.drazin_index":
                self.index_searches_in_ginv += 1
            self._ginv_depth += 1
        self._stack.append([index, name_id, 0, boundary])
        self.span_start.append(time.perf_counter_ns())

    def _exit(self, exc):
        end = time.perf_counter_ns()
        index, name_id, child_ns, boundary = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.calls[name_id] += 1
        self.self_ns[name_id] += duration - child_ns
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        name = self.names[name_id]
        module, fn = name.split(".", 1)
        if module == "ginv":
            self._ginv_depth -= 1
        if exc is not None:
            self.span_raised[index] = 1
        if boundary and fn in INVERSE_KINDS:
            if exc is None:
                self.certified[fn] += 1
            elif isinstance(exc, self._ginv_error) and not isinstance(exc, self._no_group_inverse):
                self.ginv_errors += 1
        parent_name = self.names[parent[1]] if parent is not None else ""
        if fn in RANDOM_CHANNELS and parent_name.split(".", 1)[-1] in DRAWS:
            self.draws += 1
        if (
            exc is not None
            and module == "theorems"
            and (fn.startswith("check_") or fn == "search_mp_tp_violation")
            and not parent_name.startswith("theorems.")
        ):
            self.guarded_errors += 1

    # -- results -------------------------------------------------------------

    def metrics(self, ops: int, traced_ops_per_s: float) -> dict:
        """Per-layer metrics, counts and self times averaged per operation."""
        per_op = 1.0 / max(ops, 1)
        values = {}
        for i, name in enumerate(self.names):
            values[f"{name}.calls"] = self.calls[i] * per_op
            values[f"{name}.self_ms"] = self.self_ns[i] * 1e-6 * per_op
        values["lapack.svd.calls"] = self.lapack_svd * per_op
        values["ginv.errors"] = self.ginv_errors * per_op
        indexed = sum(self.certified[k] for k in INDEXED_KINDS)
        values["ginv.index_searches_per_inverse"] = _ratio(self.index_searches_in_ginv, indexed)
        values["ginv.svd_per_inverse"] = _ratio(self.lapack_svd_in_ginv, sum(self.certified.values()))
        accepted = sum(self.calls[self._ids[f"theorems.{d}"]] for d in DRAWS)
        values["theorems.draws_per_instance"] = _ratio(self.draws, accepted)
        values["theorems.guarded_errors"] = self.guarded_errors * per_op
        values["trace.ops_per_s"] = traced_ops_per_s
        units = metric_units()
        return {k: {"value": values[k], "unit": units[k]} for k in units}

    def save_spans(self, path):
        """Write every recorded span to ``path`` as a NumPy ``.npz`` archive."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            raised=np.frombuffer(self.span_raised, dtype=np.int8),
        )


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
