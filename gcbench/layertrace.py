"""Layer tracing from outside the program: wrap the public functions of
each graphcomplex module at every name a caller looks them up by, and
aggregate call counts, inclusive time and self time per function and per
(caller, callee) pair.  Self time excludes the time of nested wrapped
calls.  Aggregates are kept instead of a span list so that a canonizer
called 160k times in a run does not hold 160k span records.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

# layer module -> public names to wrap; "Class.method" wraps a method on its class
TRACED = {
    "generate": ["generate", "build_basis"],
    "canon": ["canonical_form", "aut_group_order"],
    "connectivity": [
        "connectivity_class",
        "separation_pairs",
        "spqr",
        "recompose",
        "contraction_case",
        "r_edge_weight",
        "edge_owner",
    ],
    "complexes": ["verify_theorem1", "cohomology_dims", "differential_matrix"],
    "matrixops": ["exact_rank", "SparseRationalMatrix.matmul"],
    "formal": ["FormalSum.add_graph"],
    "operators": [
        "identity_suite",
        "apply_d",
        "apply_delta0",
        "apply_nabla",
        "apply_D",
        "apply_pi",
        "apply_Dbar",
        "apply_delta_k",
        "pairing",
    ],
    "homotopy": ["to_labeled", "homotopy_check", "d_prime", "h_homotopy", "n_value"],
}
LAYERS = tuple(TRACED)
ROOT = "<root>"


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        # (caller, callee) -> [calls, inclusive seconds]
        self.pairs: dict[tuple[str, str], list] = {}
        # frame: [name, start, time spent in wrapped children]
        self.stack: list[list] = [[ROOT, 0.0, 0.0]]
        self.canon_seen: set = set()
        self.canon_repeats = 0
        self.canon_colored = 0
        self.generate_classes: dict[tuple, int] = {}
        self.matrix_max = [0, 0, 0]  # rows, cols, nnz seen by exact_rank
        self.terms_out = 0

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        stack = self.stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            parent = stack[-1]
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spent = clock() - frame[1]
                parent[2] += spent
                stats[0] += 1
                stats[1] += spent
                stats[2] += spent - frame[2]
                pair = self.pairs.get((parent[0], name))
                if pair is None:
                    pair = self.pairs[(parent[0], name)] = [0, 0.0]
                pair[0] += 1
                pair[1] += spent
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- hooks that count inside the wrapper, where the work happens ------

    def _on_canon(self, args, kwargs):
        g = args[0]
        colors = args[1] if len(args) > 1 else kwargs.get("colors")
        if colors is not None:
            self.canon_colored += 1
        # the input of the program's labeling cache
        key = (g.n, g.adj, tuple(colors) if colors is not None else None)
        if key in self.canon_seen:
            self.canon_repeats += 1
        else:
            self.canon_seen.add(key)

    def _on_generate(self, args, result):
        self.generate_classes[tuple(args)] = len(result)

    def _on_rank(self, args, kwargs):
        m = args[0]
        for i, v in enumerate((m.rows, m.cols, m.nnz())):
            self.matrix_max[i] = max(self.matrix_max[i], v)

    def _on_operator(self, args, result):
        self.terms_out += len(result)

    def install(self) -> None:
        """Replace every binding of each traced function, in every loaded
        graphcomplex module, by its wrapper."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "graphcomplex" or n.startswith("graphcomplex.")
        ]
        for layer, attrs in TRACED.items():
            module = sys.modules["graphcomplex." + layer]
            for attr in attrs:
                name = f"{layer}.{attr}"
                on_call = on_result = None
                if name == "canon.canonical_form":
                    on_call = self._on_canon
                elif name == "generate.generate":
                    on_result = self._on_generate
                elif name == "matrixops.exact_rank":
                    on_call = self._on_rank
                elif layer == "operators" and attr.startswith("apply_"):
                    on_result = self._on_operator
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth), on_call, on_result))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, on_call, on_result)
                bound = 0
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"no binding of {name} found")

    # -- metrics ------------------------------------------------------------

    def _calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def _incl(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def _self(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def _pair(self, caller, callee):
        return self.pairs.get((caller, callee), [0, 0.0])

    def metrics(self, wall_s: float, lru_size: int) -> dict[str, float]:
        out: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            layer_self[name.split(".")[0]] += self_s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]

        canon_calls = self._calls("canon.canonical_form")
        gen_canon = self._pair("generate.generate", "canon.canonical_form")[0]
        classes = sum(self.generate_classes.values())
        out["generate.canon_calls"] = gen_canon
        out["generate.classes"] = classes
        out["generate.canon_per_class"] = gen_canon / classes if classes else 0.0
        out["generate.build_basis_s"] = (
            self._incl("generate.build_basis")
            - self._pair("generate.build_basis", "generate.generate")[1]
        )
        out["generate.basis_recanon_calls"] = self._pair(
            "generate.build_basis", "canon.canonical_form"
        )[0]

        out["canon.calls"] = canon_calls
        out["canon.us_per_call"] = (
            1e6 * self._self("canon.canonical_form") / canon_calls if canon_calls else 0.0
        )
        out["canon.repeat_share"] = self.canon_repeats / canon_calls if canon_calls else 0.0
        out["canon.colored_calls"] = self.canon_colored
        out["canon.lru_size"] = lru_size

        out["connectivity.class_calls"] = self._calls("connectivity.connectivity_class")
        out["connectivity.class_s"] = self._incl("connectivity.connectivity_class")
        out["connectivity.spqr_calls"] = self._calls("connectivity.spqr")
        out["connectivity.spqr_s"] = self._incl("connectivity.spqr")

        out["complexes.differential_calls"] = self._calls("complexes.differential_matrix")
        out["complexes.differential_s"] = self._incl("complexes.differential_matrix")

        out["matrixops.rank_calls"] = self._calls("matrixops.exact_rank")
        out["matrixops.rank_s"] = self._incl("matrixops.exact_rank")
        out["matrixops.matmul_s"] = self._incl("matrixops.SparseRationalMatrix.matmul")
        rows, cols, nnz = self.matrix_max
        out["matrixops.max_rows"] = rows
        out["matrixops.max_cols"] = cols
        out["matrixops.max_nnz"] = nnz

        out["formal.add_graph_calls"] = self._calls("formal.FormalSum.add_graph")
        out["formal.add_graph_s"] = self._incl("formal.FormalSum.add_graph")

        out["operators.D_calls"] = self._calls("operators.apply_D")
        out["operators.D_s"] = self._incl("operators.apply_D")
        out["operators.delta0_s"] = self._incl("operators.apply_delta0")
        out["operators.nabla_s"] = self._incl("operators.apply_nabla")
        out["operators.Dbar_s"] = self._incl("operators.apply_Dbar")
        out["operators.terms_out"] = self.terms_out

        out["homotopy.check_calls"] = self._calls("homotopy.homotopy_check")
        out["homotopy.check_s"] = self._incl("homotopy.homotopy_check")
        out["homotopy.d_prime_s"] = self._incl("homotopy.d_prime")
        out["homotopy.h_s"] = self._incl("homotopy.h_homotopy")

        top = sum(spent for (caller, _), (_, spent) in self.pairs.items() if caller == ROOT)
        out["trace.wall_s"] = wall_s
        out["trace.top_span_share"] = top / wall_s if wall_s else 0.0
        return out
