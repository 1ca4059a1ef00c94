"""Per-layer tracing from outside the package, by wrapping public functions.

Each target is rebound in every `polywidth` module that imported it by
name, and `HPolytope.__init__` on its class, so calls made through any
module are seen.  A layer records calls, inclusive time, self time
(inclusive time minus the time of wrapped callees) and calls that raised.  `uninstall` puts every
original object back.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer); two targets may share a layer.
TARGETS = (
    ("polywidth.polytopes", "HPolytope.__init__", "polytopes.HPolytope"),
    ("polywidth.polytopes", "normal_fan", "polytopes.normal_fan"),
    ("polywidth.polytopes", "is_fano", "polytopes.is_fano"),
    ("polywidth.polytopes", "blowup_chain", "polytopes.blowup_chain"),
    ("polywidth.width", "upper_bound_via_fano_or_blowup", "width.upper_bound_via_fano_or_blowup"),
    ("polywidth.bending", "caterpillar_polytope", "bending.moment_images"),
    ("polywidth.bending", "triple_pairs_polytope_6", "bending.moment_images"),
    ("polywidth.bending", "is_bending_toric", "bending.is_bending_toric"),
    ("polywidth.bending", "validate_perturbation_step", "bending.validate_perturbation_step"),
    ("polywidth.lengths", "is_generic", "lengths.is_generic"),
    ("polywidth.width", "max_axis_cross", "width.max_axis_cross"),
    ("polywidth.width", "relation_bound", "width.relation_bound"),
    ("polywidth.lp", "solve_lp", "lp.solve_lp"),
    ("polywidth.volume", "combinatorial_volume", "volume.combinatorial_volume"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))


class Tracer:
    def __init__(self) -> None:
        self.stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "raised": 0})
        self.vertices = 0
        self._children: list[list[float]] = []  # wrapped-callee time per open call
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, is_init: bool):
        stat = self.stats[layer]
        children = self._children

        def traced(*args, **kwargs):
            frame = [0.0]
            children.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat["raised"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                children.pop()
                stat["calls"] += 1
                stat["self_s"] += elapsed - frame[0]
                stat["incl_s"] += elapsed
                if children:
                    children[-1][0] += elapsed
            if is_init:
                self.vertices += len(args[0].vertices)
            return result

        return traced

    def install(self) -> None:
        # every module is imported first: one imported while the wrappers are
        # in place would bind them by name, beyond the reach of `uninstall`
        package = importlib.import_module("polywidth")
        for info in pkgutil.iter_modules(package.__path__, "polywidth."):
            importlib.import_module(info.name)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "polywidth"]
        for module_name, attr, layer in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                owners = [owner]
            else:
                owners = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(original, layer, attr == "__init__")
            for target in owners:
                for name, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, name, wrapper)
                        self._patches.append((target, name, original))

    def uninstall(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

