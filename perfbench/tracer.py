"""Per-layer tracing of stringhom, installed from outside the program.

``Tracer.install`` replaces traced functions and methods of the layer
modules with wrappers and ``Tracer.uninstall`` puts the originals back.  A
wrapper pushes a span on one stack; when the span closes, its duration
minus the time of the wrapped calls nested inside it is the layer's self
time, in wall and in CPU seconds.  Stage times are inclusive times of the
outermost call of a stage, and counters read the arguments and results of
the calls that do the work.  Nothing is written until ``metrics`` is read.

Traced per layer (module):

* every module-level public function, except ``exactlin.as_fraction``,
  which runs once per matrix entry: a span there would cost more than the
  conversion, whose time stays in its caller's self time;
* the private helpers another module calls across the boundary
  (``free_dga._enumerate_words``, ``free_dga._word_differential``);
* the methods in ``METHODS``: ``RowReducer``'s elimination methods, window
  and DGA validation, and the filtered-complex checks.  ``RowReducer.reduce``
  runs only inside ``add`` and ``contains``, whose spans cover it; a span of
  its own would double the cost of tracing the hottest call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "free_dga", "exactlin", "specseq", "chords", "cord")

EXTRA_FUNCTIONS = {"free_dga": ("_enumerate_words", "_word_differential")}
SKIP_FUNCTIONS = {"exactlin": ("as_fraction",)}
METHODS = {
    "free_dga": {"DGA": ("validate",), "LengthWindow": ("realizable_sums", "ensure_valid")},
    "exactlin": {
        "RowReducer": ("add", "contains", "reduced_rows"),
        "Subspace": ("from_vectors", "contains", "sum"),
    },
    "specseq": {"FilteredComplex": ("validate", "homology_dims")},
}

_ELIMINATION = ("RowReducer.", "Subspace.", "rref", "rank", "kernel_basis", "quotient_dim")
STAGES = {
    "free_dga._enumerate_words": "enumerate_s",
    "free_dga._word_differential": "assemble_s",
    "free_dga.differential": "assemble_s",
    "free_dga.DGA.validate": "validate_s",
    "free_dga.LengthWindow.ensure_valid": "validate_s",
    "specseq.from_dga": "build_s",
    "specseq.page": "page_s",
    "chords.find_spectrum": "search_s",
    "cord.quotient_dims_by_wordcount": "slices_s",
}

COUNTS = (
    "free_dga.enumerations", "free_dga.words", "free_dga.diff_terms",
    "exactlin.rows_added", "exactlin.rows_useful",
    "specseq.pages_built", "specseq.einf_passes", "specseq.cells", "specseq.boundary_nnz",
    "chords.seeds", "chords.converged", "chords.found", "chords.descent_violations",
)


def _stage(name: str) -> str | None:
    layer, _, rest = name.partition(".")
    if layer == "exactlin" and rest.startswith(_ELIMINATION):
        return "exactlin.eliminate_s"
    stage = STAGES.get(name)
    return f"{layer}.{stage}" if stage else None


class Tracer:
    def __init__(self):
        self._stack: list[list[int]] = []
        self._self_wall = {layer: 0 for layer in LAYERS}
        self._self_cpu = {layer: 0 for layer in LAYERS}
        self._calls = {layer: 0 for layer in LAYERS}
        self._stage_ns: dict[str, int] = {}
        self._stage_depth: dict[str, int] = {}
        self.counts = {name: 0 for name in COUNTS}
        self._restore: list[tuple[object, str, object]] = []

    # -- counters ----------------------------------------------------------

    def _before(self, name: str):
        if name == "free_dga._word_differential":
            return lambda args, kwargs: len(args[2])
        return None

    def _after(self, name: str):
        c = self.counts
        if name == "free_dga._enumerate_words":
            def after(args, kwargs, result, state):
                c["free_dga.enumerations"] += 1
                c["free_dga.words"] += len(result)
        elif name == "free_dga._word_differential":
            def after(args, kwargs, result, state):
                c["free_dga.diff_terms"] += len(args[2]) - state
        elif name == "exactlin.RowReducer.add":
            def after(args, kwargs, result, state):
                c["exactlin.rows_added"] += 1
                c["exactlin.rows_useful"] += bool(result)
        elif name == "specseq.from_dga":
            def after(args, kwargs, result, state):
                c["specseq.cells"] += len(result.cells)
                c["specseq.boundary_nnz"] += len(result.boundary.entries)
        elif name == "specseq.page":
            def after(args, kwargs, result, state):
                c["specseq.pages_built"] += 1
        elif name == "specseq.einfinity":
            def after(args, kwargs, result, state):
                c["specseq.einf_passes"] += 1
        elif name == "chords.find_spectrum":
            def after(args, kwargs, result, state):
                diag = args[2] if len(args) > 2 else kwargs.get("diagnostics")
                c["chords.found"] += len(result)
                if diag is not None:
                    c["chords.seeds"] += diag.get("seeds", 0)
                    c["chords.converged"] += diag.get("converged", 0)
                    c["chords.descent_violations"] += diag.get("descent_violations", 0)
        else:
            return None
        return after

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        layer = name.partition(".")[0]
        stage = _stage(name)
        before, after = self._before(name), self._after(name)
        stack = self._stack
        self_wall, self_cpu, calls = self._self_wall, self._self_cpu, self._calls
        stage_ns, stage_depth = self._stage_ns, self._stage_depth
        if stage:
            stage_ns.setdefault(stage, 0)
            stage_depth.setdefault(stage, 0)
        wall, cpu = time.perf_counter_ns, time.process_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            if stage:
                stage_depth[stage] += 1
            frame = [0, 0, wall(), cpu()]  # nested wall, nested cpu, start wall, start cpu
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dw = wall() - frame[2]
                dc = cpu() - frame[3]
                stack.pop()
                self_wall[layer] += dw - frame[0]
                self_cpu[layer] += dc - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += dw
                    stack[-1][1] += dc
                if stage:
                    stage_depth[stage] -= 1
                    if not stage_depth[stage]:
                        stage_ns[stage] += dw
            if after:
                after(args, kwargs, result, state)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(raw.__func__, name))
        else:
            new = self._wrap(raw, name)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            mod = importlib.import_module(f"stringhom.{layer}")
            skip = SKIP_FUNCTIONS.get(layer, ())
            names = [
                n for n, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and not n.startswith("_") and n not in skip
            ]
            for n in sorted(names) + list(EXTRA_FUNCTIONS.get(layer, ())):
                self._patch(mod, n, f"{layer}.{n}")
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    self._patch(cls, m, f"{layer}.{cls_name}.{m}")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float | int]:
        """Per-layer metrics of everything traced so far, by name."""
        c = self.counts
        out: dict[str, float | int] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self._self_wall[layer] / 1e9
            out[f"{layer}.self_cpu_s"] = self._self_cpu[layer] / 1e9
            out[f"{layer}.calls"] = self._calls[layer]
        for stage, ns in self._stage_ns.items():
            out[stage] = ns / 1e9
        for name in COUNTS:
            if name not in ("exactlin.rows_useful", "chords.converged"):
                out[name] = c[name]
        out["exactlin.useful_ratio"] = (
            c["exactlin.rows_useful"] / c["exactlin.rows_added"] if c["exactlin.rows_added"] else 0.0
        )
        out["chords.converged_ratio"] = (
            c["chords.converged"] / c["chords.seeds"] if c["chords.seeds"] else 0.0
        )
        return out
