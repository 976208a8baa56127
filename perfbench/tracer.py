"""Span tracer installed from outside the program.

Each public function named in LAYERS is replaced by a wrapper on its module
or class, and in every gaugeflow module that bound the same object with
`from ... import`. A wrapped call records one span (name, start, end, parent
span, op id). Spans stay in memory; `write` stores them at the end of a run.
A span's self time is its duration minus the durations of its direct child
spans (calls run on one thread, so children never overlap).
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time

# module -> public functions ("Class.method" for methods) that the benchmark traces
LAYERS = {
    "molecule": ["parse_sdf", "write_sdf", "stability"],
    "canonicalizer": ["canonicalize", "canonicalize_perm", "fiedler_vector",
                      "canonicalize_so3", "order_multihop"],
    "symgroup": ["act", "compose", "haar_sample", "c4_group", "permutation_matrix_group"],
    "flowcore.tape": ["backward", "matmul", "silu", "concat", "repeat_rows", "tile_rows",
                      "pairwise_dot", "block_mean_rows", "coord_mix",
                      "softmax_cross_entropy", "mse"],
    "flowcore.nets": ["CanonLiteNet.__call__", "MLP.__call__", "VectorFieldMLP.__call__"],
    "flowcore.training": ["train", "molecular_fm_loss", "sample_molecular_noise",
                          "Adam.step", "EMA.update", "integrate_vector_field",
                          "energy_distance", "FlowModel.load"],
    "priors": ["sample_rank_gaussian", "sample_positional", "sample_gaussian",
               "fit_rank_gaussian", "fit_positional"],
    "coupling": ["ot_pair"],
    "sampler": ["sample", "euler_step", "pcs_step", "haar_randomize",
                "sample_vectors", "finite_group_randomize"],
    "theorylab": ["run_default_suite", "simulate", "variance_decomposition",
                  "knn_local_linear_variance", "ambient_condvar_quadrature",
                  "collision_bound", "lift_independence", "bayes_equivariance_check"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def _pair_rows(args) -> float:
    """Sum of N^2 over CanonLite forwards: args are (net, z_t, t, ranks, ...)."""
    return float(args[1].n_atoms ** 2)


def _matmul_gflop(args) -> float:
    """2*m*k*n of a 2-D matmul, from the operand shapes."""
    m, k = args[0].data.shape
    return 2.0 * m * k * args[1].data.shape[1] / 1e9


# computed counts, labelled as such in the report: span name -> (counter, fn(args))
COMPUTED = {
    "flowcore.nets.CanonLiteNet.__call__": ("flowcore.nets.pair_rows", _pair_rows),
    "flowcore.tape.matmul": ("flowcore.tape.matmul.gflop", _matmul_gflop),
}


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name index, start, end, parent span, op id)
        self.computed = {counter: 0.0 for counter, _ in COMPUTED.values()}
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, index: int, fn):
        spans, stack = self.spans, self._stack
        computed = COMPUTED.get(SPAN_NAMES[index])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if computed is not None:
                self.computed[computed[0]] += computed[1](args)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, parent, self.op_id)

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg_modules = [m for name, m in list(sys.modules.items())
                       if name == "gaugeflow" or name.startswith("gaugeflow.")]
        for index, name in enumerate(SPAN_NAMES):
            mod_name, _, attr = name.rpartition(".")
            if mod_name.rsplit(".", 1)[-1][:1].isupper():      # Class.method
                mod_name, _, cls_name = mod_name.rpartition(".")
                cls = getattr(importlib.import_module(f"gaugeflow.{mod_name}"), cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(index, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(index, raw))
                continue
            module = importlib.import_module(f"gaugeflow.{mod_name}")
            original = module.__dict__[attr]
            wrapped = self._wrap(index, original)
            for mod in pkg_modules:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for index, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for sid, (index, start, end, _, _) in enumerate(self.spans):
            calls[index] += 1
            self_s[index] += end - start - child_time[sid]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(SPAN_NAMES)}

    def write(self, path) -> None:
        """Spans as gzipped CSV: span,name,start_s,end_s,parent,op."""
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for sid, (index, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid},{SPAN_NAMES[index]},{start:.9f},{end:.9f},{parent},{op}\n")
