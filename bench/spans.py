"""Per-layer spans for genuskit, installed from outside the package.

Each traced function is replaced by a wrapper in every ``genuskit.*``
namespace that holds the same function object (so names brought in with
``from .x import f`` are covered), and methods are replaced on their
class.  A wrapper records one span per call: name, start, end, parent span
and operation id.  Recursive calls go through the module global, so they
nest as child spans.  Spans stay in flat arrays until the run ends.

Size counters are computed from returned values after the operation has
finished, with tracing switched off, so they cost no span time.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "dsl", "primeset", "intlinalg", "rank1", "abmod", "heis")

# (layer, attribute path inside genuskit.<layer>)
TARGETS = (
    ("cli", "main"),
    ("dsl", "read_value"),
    ("dsl", "print_value"),
    ("dsl", "parse_values"),
    ("primeset", "factorize"),
    ("primeset", "is_x_number"),
    ("intlinalg", "smith_normal_form"),
    ("intlinalg", "hnf_rows"),
    ("intlinalg", "hnf_with_transform"),
    ("intlinalg", "left_kernel_basis"),
    ("intlinalg", "rational_row_solve"),
    ("intlinalg", "invert_rational"),
    ("rank1", "is_bounded"),
    ("rank1", "is_bounded_above"),
    ("rank1", "pullback_rank1"),
    ("rank1", "rank1_iso"),
    ("rank1", "double_coset_class"),
    ("rank1", "verify_localization_properties"),
    ("abmod", "FGModule.element_is_zero"),
    ("abmod", "ModuleMap.__init__"),
    ("abmod", "mixed_kernel"),
    ("abmod", "is_localization"),
    ("abmod", "build_fracture"),
    ("abmod", "pullback"),
    ("abmod", "torsion_check"),
    ("abmod", "genus_witness"),
    ("heis", "HeisSubgroup.__init__"),
    ("heis", "HeisSubgroup.membership"),
    ("heis", "evaluate_word"),
    ("heis", "power_closure_check"),
)

# Called inside mixed_kernel once per deepening step; counted, not spanned.
LEVEL_PROBE = ("intlinalg", "lattice_equal")


def word_nodes(word, memo) -> int:
    """Node count of a word tree: one per leaf and one per power node.

    Words share sub-tuples, so counts are memoized by identity; the result
    is the size of the expanded tree, which is what a replay walks.
    """
    key = id(word)
    if key in memo:
        return memo[key][0]
    total = 0
    for item in word:
        total += 1
        if item and item[0] == "pow":
            total += word_nodes(item[1], memo)
    memo[key] = (total, word)  # keep the tuple alive so its id stays unique
    return total


def _matrix_bits(m) -> int:
    return max((abs(x).bit_length() for row in m for x in row), default=0)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.level_probes = 0
        self.max_factor_bits = 0
        self.max_level_bits = 0
        self.max_transform_bits = 0
        self.max_word_nodes = 0
        self.max_center_word_nodes = 0
        self._snf_results: list = []
        self._memberships: list = []
        self._subgroups: list = []
        self._installed: list = []

    # ------------------------------------------------------------ install

    def _wrap(self, name: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            idx = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
                if stack and stack[-1] == idx:
                    stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _after(self, name: str):
        if name == "primeset.factorize":
            def after(args, result):
                bits = args[0].bit_length()
                if bits > self.max_factor_bits:
                    self.max_factor_bits = bits
            return after
        if name == "intlinalg.smith_normal_form":
            return lambda args, result: self._snf_results.append(result)
        if name == "abmod.pullback":
            def after(args, result):
                bits = result.level.bit_length()
                if bits > self.max_level_bits:
                    self.max_level_bits = bits
            return after
        if name == "heis.HeisSubgroup.membership":
            return lambda args, result: self._memberships.append(result)
        if name == "heis.HeisSubgroup.__init__":
            return lambda args, result: self._subgroups.append(args[0])
        return None

    def install(self, package: str = "genuskit") -> None:
        """Replace every target in all loaded ``package.*`` namespaces."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for layer, path in TARGETS:
            owner = sys.modules[f"{package}.{layer}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            name = f"{layer}.{path}"
            original = owner.__dict__[attr] if outer else getattr(owner, attr)
            wrapper = self._wrap(name, original, self._after(name))
            if outer:
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, original))
                        setattr(module, key, wrapper)

        layer, attr = LEVEL_PROBE
        original = getattr(sys.modules[f"{package}.{layer}"], attr)

        def counted(*args, **kwargs):
            if self.enabled:
                self.level_probes += 1
            return original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._installed.append((module, key, original))
                    setattr(module, key, counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------ operations

    def begin(self, op: int) -> int:
        self.op = op
        self.enabled = True
        return len(self.stack)

    def end(self, depth: int) -> None:
        """Stop recording; drop frames a timeout left open."""
        self.enabled = False
        del self.stack[depth:]

    def settle(self, center_word) -> None:
        """Size counters from the values the operation returned.

        ``center_word(subgroup)`` gives a subgroup's center word through
        its public API; it runs here, with tracing off.
        """
        for _, left, right in self._snf_results:
            bits = max(_matrix_bits(left), _matrix_bits(right))
            if bits > self.max_transform_bits:
                self.max_transform_bits = bits
        memo: dict = {}
        for m in self._memberships:
            if m.word is not None:
                nodes = word_nodes(m.word, memo)
                if nodes > self.max_word_nodes:
                    self.max_word_nodes = nodes
        for sub in self._subgroups:
            nodes = word_nodes(center_word(sub), memo)
            if nodes > self.max_center_word_nodes:
                self.max_center_word_nodes = nodes
        self._snf_results.clear()
        self._memberships.clear()
        self._subgroups.clear()

    # ------------------------------------------------------------ results

    def metrics(self, op_time_s: float, overhead: float) -> dict:
        """Per-layer metrics; ``op_time_s`` is the traced operations' total."""
        n = len(self.span_start)
        start, end, parent = self.span_start, self.span_end, self.span_parent
        child = array("d", bytes(8 * n))
        covered = 0.0
        for i in range(n):
            p = parent[i]
            if p < 0:
                covered += end[i] - start[i]
            else:
                child[p] += end[i] - start[i]
        totals = [0.0] * len(self.names)
        counts = [0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            totals[k] += end[i] - start[i] - child[i]
            counts[k] += 1
        self_s = dict(zip(self.names, totals))
        calls = dict(zip(self.names, counts))

        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in self_s.items():
            layer_self[name.split(".", 1)[0]] += value

        def share(x):
            return x / op_time_s if op_time_s > 0 else 0.0

        out = {
            "cli.main.self_s": (self_s["cli.main"], "s"),
            "dsl.read_value.self_s": (self_s["dsl.read_value"], "s"),
            "dsl.print_value.self_s": (self_s["dsl.print_value"], "s"),
            "primeset.factorize.calls": (calls["primeset.factorize"], "count"),
            "primeset.factorize.self_s": (self_s["primeset.factorize"], "s"),
            "primeset.factorize.max_input_bits": (self.max_factor_bits, "bits"),
            "primeset.is_x_number.calls": (calls["primeset.is_x_number"], "count"),
            "primeset.is_x_number.self_s": (self_s["primeset.is_x_number"], "s"),
            "intlinalg.smith_normal_form.calls": (calls["intlinalg.smith_normal_form"], "count"),
            "intlinalg.smith_normal_form.self_s": (self_s["intlinalg.smith_normal_form"], "s"),
            "intlinalg.smith_normal_form.max_transform_bits": (self.max_transform_bits, "bits"),
            "intlinalg.hnf_rows.self_s": (self_s["intlinalg.hnf_rows"], "s"),
            "intlinalg.hnf_with_transform.self_s": (self_s["intlinalg.hnf_with_transform"], "s"),
            "intlinalg.left_kernel_basis.self_s": (self_s["intlinalg.left_kernel_basis"], "s"),
            "intlinalg.rational_row_solve.calls": (calls["intlinalg.rational_row_solve"], "count"),
            "intlinalg.rational_row_solve.self_s": (self_s["intlinalg.rational_row_solve"], "s"),
            "intlinalg.invert_rational.self_s": (self_s["intlinalg.invert_rational"], "s"),
            "abmod.FGModule.element_is_zero.calls": (calls["abmod.FGModule.element_is_zero"], "count"),
            "abmod.FGModule.element_is_zero.self_s": (self_s["abmod.FGModule.element_is_zero"], "s"),
            "abmod.ModuleMap.__init__.calls": (calls["abmod.ModuleMap.__init__"], "count"),
            "abmod.ModuleMap.__init__.self_s": (self_s["abmod.ModuleMap.__init__"], "s"),
            "abmod.mixed_kernel.calls": (calls["abmod.mixed_kernel"], "count"),
            "abmod.mixed_kernel.self_s": (self_s["abmod.mixed_kernel"], "s"),
            "abmod.mixed_kernel.levels_per_call": (
                self.level_probes / calls["abmod.mixed_kernel"] if calls["abmod.mixed_kernel"] else 0.0,
                "ratio",
            ),
            "abmod.pullback.max_level_bits": (self.max_level_bits, "bits"),
            "abmod.is_localization.self_s": (self_s["abmod.is_localization"], "s"),
            "abmod.build_fracture.self_s": (self_s["abmod.build_fracture"], "s"),
            "heis.HeisSubgroup.__init__.self_s": (self_s["heis.HeisSubgroup.__init__"], "s"),
            "heis.evaluate_word.calls": (calls["heis.evaluate_word"], "count"),
            "heis.evaluate_word.self_s": (self_s["heis.evaluate_word"], "s"),
            "heis.membership.max_word_nodes": (self.max_word_nodes, "count"),
            "heis.HeisSubgroup.max_center_word_nodes": (self.max_center_word_nodes, "count"),
            "heis.HeisSubgroup.membership.calls": (calls["heis.HeisSubgroup.membership"], "count"),
            "heis.HeisSubgroup.membership.self_s": (self_s["heis.HeisSubgroup.membership"], "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
            out[f"{layer}.share"] = (share(layer_self[layer]), "ratio")
        out["bench.glue_share"] = (share(max(0.0, op_time_s - covered)), "ratio")
        out["trace.overhead"] = (overhead, "ratio")
        return out

    def write(self, path: str) -> None:
        """Spans as raw little-endian columns next to a JSON index."""
        columns = {
            "name": self.span_name,
            "parent": self.span_parent,
            "op": self.span_op,
            "start_s": self.span_start,
            "end_s": self.span_end,
        }
        layout = []
        with open(path + ".bin", "wb") as handle:
            for key, column in columns.items():
                if sys.byteorder != "little":
                    column = array(column.typecode, column)
                    column.byteswap()
                layout.append({"column": key, "typecode": column.typecode, "offset": handle.tell()})
                column.tofile(handle)
        index = {"spans": len(self.span_start), "names": self.names, "columns": layout}
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(index, handle, indent=1)
