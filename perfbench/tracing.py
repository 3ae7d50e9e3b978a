"""Spans around ordersum's layer functions, installed from outside the program.

`theorems` and `cli` import functions such as `catalog`, `canonical_form`,
`build_group`, `element_orders_of_table` and `psi_cyclic` by name, so a
wrapper replaces the function in every module namespace that binds it.  Each
call records a span (name, parent, start, end); spans stay in memory and are
folded into per-layer totals when the traced round ends.  A recursive call of
a traced function (`_table_for` on a direct product) records no span of its
own: its time belongs to the outermost call.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

LAYERS = ("arith", "groups", "enumeration", "theorems", "cli")

CHECKERS = ("verify_max_cyclic", "verify_upper_bound", "verify_equality_classification",
            "lemma7_check", "thm4_family_check", "mqr_formula_check", "lemma5_check",
            "lemma6_check", "proof_inequality_audit")
RENDERERS = ("reports_to_text", "reports_to_csv", "report_to_dict")

TRACED = {
    "cli": ("main",),
    "theorems": CHECKERS + RENDERERS,
    "enumeration": ("catalog", "psi_spectrum", "_search_groups", "_is_canonical",
                    "_scan_labelings", "canonical_form", "_describe_classes",
                    "_load_catalog", "_save_catalog"),
    "groups": ("build_group", "_table_for", "_spot_check_associativity", "validate_table",
               "element_orders_of_table"),
    "arith": ("factorize", "psi_cyclic"),
}


class Tracer:
    """Patches the traced functions on install() and restores them on remove()."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"ordersum.{name}") for name in LAYERS}
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_table_bytes = 0
        self._patched: list[tuple[object, str, object]] = []

    def _count(self, name: str, args, result) -> None:
        if name.removeprefix("theorems.") in CHECKERS:
            self.counts["theorems.cases"] += len(result.cases)
        elif name == "enumeration._describe_classes":
            self.counts["enumeration.classes"] += len(result)
        elif name == "enumeration._load_catalog":
            self.counts["enumeration.cache_misses" if result is None
                        else "enumeration.cache_hits"] += 1
        elif name == "groups._table_for":
            size = len(result) ** 2 * 8
            self.counts["groups.table_bytes"] += size
            self.max_table_bytes = max(self.max_table_bytes, size)
        elif name == "groups.element_orders_of_table":
            self.counts["groups.order_walk_elements"] += len(args[0])

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self.active[name]:
                return fn(*args, **kwargs)
            span = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            self.active[name] += 1
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.active[name] -= 1
                self.stack.pop()
            self._count(name, args, result)
            return result
        return traced

    def install(self) -> None:
        for layer, names in TRACED.items():
            for fname in names:
                orig = getattr(self.modules[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in self.modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer figures of the spans recorded, for a traced wall time `wall`."""
        incl, selft, calls = defaultdict(float), defaultdict(float), Counter()
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, parent, start, end), child in zip(self.spans, covered):
            incl[name] += end - start
            selft[name] += end - start - child
            calls[name] += 1
        roots = sum(end - start for _, parent, start, end in self.spans if parent < 0)

        def total(table, layer, names):
            return sum(table[f"{layer}.{n}"] for n in names)

        m = {
            "theorems.check_s": total(selft, "theorems", CHECKERS),
            "theorems.render_s": total(incl, "theorems", RENDERERS),
            "theorems.cases": self.counts["theorems.cases"],
            "enumeration.classes": self.counts["enumeration.classes"],
            "enumeration.cache_hits": self.counts["enumeration.cache_hits"],
            "enumeration.cache_misses": self.counts["enumeration.cache_misses"],
            "groups.order_walk_elements": self.counts["groups.order_walk_elements"],
            "groups.table_bytes": self.counts["groups.table_bytes"],
            "groups.max_table_bytes": self.max_table_bytes,
            "arith.psi_cyclic_calls": calls["arith.psi_cyclic"],
        }
        for metric, fname, with_calls in (
            ("enumeration.search", "_search_groups", True),
            ("enumeration.is_canonical", "_is_canonical", True),
            ("enumeration.scan_labelings", "_scan_labelings", True),
            ("enumeration.canonical_form", "canonical_form", True),
            ("enumeration.describe", "_describe_classes", False),
            ("enumeration.cache_load", "_load_catalog", False),
            ("enumeration.cache_save", "_save_catalog", False),
            ("groups.build", "build_group", True),
            ("groups.table_build", "_table_for", False),
            ("groups.spot_check", "_spot_check_associativity", False),
            ("groups.validate", "validate_table", True),
            ("groups.order_walk", "element_orders_of_table", True),
            ("arith.factorize", "factorize", True),
        ):
            span = f"{metric.split('.')[0]}.{fname}"
            m[f"{metric}_s"] = incl[span]
            if with_calls:
                m[f"{metric}_calls"] = calls[span]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(t for n, t in selft.items() if n.startswith(layer + "."))
        m["trace.wall_s"] = wall
        m["trace.outside_s"] = wall - roots
        m["trace.spans"] = len(self.spans)
        return m
