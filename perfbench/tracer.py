"""Per-layer tracing of charcond, installed from outside the package.

Each public function named in LAYERS is replaced by a timing wrapper in
every place a caller looks the name up at call time: the defining module,
every charcond module that imported it by name, and, for methods, every
class attribute that aliases it (``CycloNum.__radd__`` is the same function
as ``__add__``).  The package itself is not modified on disk.

Stage-level calls (STAGES) get one span each, with a parent span id and the
run id.  Every call, stage or not, is also aggregated per (function, caller)
into a call count, self time (duration minus the time of wrapped children)
and total time; ``verify --samples 200`` makes about 900k cyclo and tables
calls, too many to record one span each.  Everything stays in memory until
``Tracer.dump`` writes it out at exit.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# metric name -> (module, attribute path) of the function it wraps
LAYERS = {
    "cyclo.parse_cyclo": ("charcond.cyclo", "parse_cyclo"),
    "cyclo.add": ("charcond.cyclo", "CycloNum.__add__"),
    "cyclo.mul": ("charcond.cyclo", "CycloNum.__mul__"),
    "cyclo.invert": ("charcond.cyclo", "CycloNum.invert"),
    "cyclo.galois": ("charcond.cyclo", "CycloNum.galois"),
    "cyclo.conductor": ("charcond.cyclo", "conductor"),
    "cyclo.to_str": ("charcond.cyclo", "cyclo_to_str"),
    "residue.build_residue_map": ("charcond.residue", "build_residue_map"),
    "residue.reduce_cyclo": ("charcond.residue", "reduce_cyclo"),
    "linalg.solve": ("charcond.linalg", "solve"),
    "linalg.rank": ("charcond.linalg", "rank"),
    "tables.load_corpus": ("charcond.tables", "load_corpus"),
    "tables.virtual_character": ("charcond.tables", "virtual_character"),
    "tables.inner_product": ("charcond.tables", "inner_product"),
    "tables.char_conductor": ("charcond.tables", "char_conductor"),
    "blocks.validate_brauer": ("charcond.blocks", "validate_brauer"),
    "blocks.partition_blocks": ("charcond.blocks", "partition_blocks"),
    "blocks.projective_characters": ("charcond.blocks",
                                     "projective_characters"),
    "gendec.gendec_all": ("charcond.gendec", "gendec_all"),
    "gendec.check_second_main": ("charcond.gendec", "check_second_main"),
    "verify.theorem1_suite": ("charcond.verify", "theorem1_suite"),
    "verify.cor05_suite": ("charcond.verify", "cor05_suite"),
    "verify.projective_invariance_suite": ("charcond.verify",
                                           "projective_invariance_suite"),
    "verify.check_restriction_props": ("charcond.verify",
                                       "check_restriction_props"),
    "isometry.search_perfect_isometries": ("charcond.isometry",
                                           "search_perfect_isometries"),
    "isometry.check_perfection": ("charcond.isometry", "check_perfection"),
    "cli.run": ("charcond.cli", "run"),
}

STAGES = frozenset({
    "tables.load_corpus", "blocks.partition_blocks", "gendec.gendec_all",
    "gendec.check_second_main", "verify.theorem1_suite", "verify.cor05_suite",
    "verify.projective_invariance_suite", "verify.check_restriction_props",
    "isometry.search_perfect_isometries", "cli.run",
})

TOP = "-"   # caller name of calls made outside any wrapped function


class Tracer:
    """Call stack, spans and per-(function, caller) aggregates of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = perf_counter()
        # frame: [name, time spent in wrapped children, id of enclosing span]
        self.stack: list[list] = [[TOP, 0.0, None]]
        self.spans: list[dict] = []
        # (name, caller) -> [calls, self_s, total_s]
        self.agg: dict[tuple[str, str], list] = {}

    def wrap(self, name: str, fn):
        stack, agg, spans = self.stack, self.agg, self.spans
        clock = perf_counter
        is_stage = name in STAGES

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) if is_stage else parent[2]
            if is_stage:
                spans.append(None)  # reserve the id; filled in on return
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[1] += dur
                key = (name, parent[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur - frame[1]
                rec[2] += dur
                if is_stage:
                    spans[span_id] = {
                        "run": self.run_id, "id": span_id,
                        "parent": parent[2], "name": name,
                        "start_s": start - self.origin,
                        "end_s": end - self.origin,
                        "self_s": dur - frame[1]}

        return wrapper

    def exclude(self, seconds: float) -> None:
        """Leave `seconds` (spent in a speed probe) out of the self time of
        the function running now."""
        self.stack[-1][1] += seconds

    def install(self) -> None:
        """Wrap every LAYERS function wherever charcond code looks it up."""
        import charcond.cli  # noqa: F401  (imports every other module)

        modules = [m for k, m in list(sys.modules.items())
                   if k == "charcond" or k.startswith("charcond.")]
        for name, (modname, path) in LAYERS.items():
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapper = self.wrap(name, orig)
            for holder in modules + [owner]:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapper)

    def dump(self, path: str) -> None:
        data = {
            "run": self.run_id,
            "spans": [s for s in self.spans if s is not None],
            "agg": [[n, c, *rec] for (n, c), rec in sorted(self.agg.items())],
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
