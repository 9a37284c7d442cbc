"""Spans and counters around calls into posetcode's public functions.

The package binds names with ``from .decomp import ...``, so a wrapper
is useful only once every module that holds the original object holds
the wrapper instead; `install` rebinds all of them and `uninstall` puts
the originals back.  Spans record name, start, end and parent, plus a
tag naming the class of the op in flight; self time is a span's
duration minus the time of the spans and timed counters inside it.
Hot, fine-grained functions are counted (and `p_weight` also timed)
but not spanned.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# (module, attribute path, metric name) of every spanned function.
SPANS = (
    ("posetcode.poset", "Poset.from_relations", "poset.from_relations"),
    ("posetcode.poset", "upper_neighbor", "poset.upper_neighbor"),
    ("posetcode.poset", "lower_neighbor", "poset.lower_neighbor"),
    ("posetcode.linear", "row_reduce_inverse", "linear.row_reduce_inverse"),
    ("posetcode.linear", "Matrix.rank", "linear.Matrix.rank"),
    ("posetcode.linear", "invert_matrix", "linear.invert_matrix"),
    ("posetcode.decomp", "maximal_p_decomposition", "decomp.maximal_p_decomposition"),
    ("posetcode.decomp", "canonical_form", "decomp.canonical_form"),
    ("posetcode.decomp", "components_from_matrix", "decomp.components_from_matrix"),
    ("posetcode.decode", "build_table", "decode.build_table"),
    ("posetcode.decode", "build_plan_for_code", "decode.build_plan_for_code"),
    ("posetcode.decode", "decode_full", "decode.decode_full"),
    ("posetcode.decode", "decode_leveled_alg1", "decode.decode_leveled_alg1"),
    ("posetcode.decode", "decode_leveled_alg2", "decode.decode_leveled_alg2"),
    ("posetcode.radius", "packing_radius_exact", "radius.packing_radius_exact"),
    ("posetcode.radius", "packing_radius_bounds", "radius.packing_radius_bounds"),
    ("posetcode.files", "load_poset", "files.load_poset"),
    ("posetcode.files", "load_code", "files.load_code"),
    ("posetcode.files", "load_vectors", "files.load_vectors"),
)
# Counted only: (module, attribute path, metric name).
COUNTS = (
    ("posetcode.poset", "Poset.ideal_mask", "poset.ideal_mask"),
    ("posetcode.linear", "Vector.__init__", "linear.Vector.created"),
)
# Counted and timed, without a span of their own.
TIMED_COUNTS = (("posetcode.linear", "p_weight", "linear.p_weight"),)
GENERATORS = (("posetcode.linear", "Code.codewords", "linear.Code.codewords"),)
CLI_COMMANDS = ("validate", "canonicalize", "decompose", "radius", "table-plan", "decode")


def _radius_split(tracer, args, kwargs):
    """Split exact-radius time by field; count the q^n (q^k - 1) points
    the exhaustive scan visits, as computed from the code's parameters."""
    code = args[0] if args else kwargs["code"]
    q, n, k = code.q, code.n, code.k
    tracer.count("radius.packing_radius_exact.points", q**n * (q**k - 1))
    return f"q{q}"


SPLITS = {"radius.packing_radius_exact": _radius_split}


class Tracer:
    """Records spans and counts while `active`; inert otherwise."""

    def __init__(self):
        self.active = False
        self.tag = ""
        # (id, parent id, name, split, tag, start, end, self seconds)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.timed: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # open: [id, name, split, start, child time]
        self._patches: list[tuple] = []
        self._next_id = 1

    # -- recording ------------------------------------------------------

    def _enter(self, name: str, split: str = "") -> list:
        frame = [self._next_id, name, split, _clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = _clock()
        self._stack.pop()
        span_id, name, split, start, child = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += dur
        self.spans.append(
            (span_id, parent[0] if parent else 0, name, split, self.tag, start, end, dur - child)
        )

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n
        if self.tag:
            self.counts[f"{name}@{self.tag}"] += n

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name):
        split = SPLITS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter(name, split(self, args, kwargs) if split else "")
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    def _count_wrapper(self, fn, name):
        def counted(*args, **kwargs):
            if self.active:
                self.count(name)
            return fn(*args, **kwargs)

        return counted

    def _timed_count_wrapper(self, fn, name):
        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.count(name)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                self.timed[name] += dur
                if self._stack:
                    self._stack[-1][4] += dur

        return timed

    def _generator_wrapper(self, fn, name):
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = self._enter(name) if self.active else None
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if frame is not None:
                        self._exit(frame)
                yield item

        return traced_gen

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded posetcode module."""
        if self._patches:
            return
        for table, make in (
            (SPANS, self._span_wrapper),
            (COUNTS, self._count_wrapper),
            (TIMED_COUNTS, self._timed_count_wrapper),
            (GENERATORS, self._generator_wrapper),
        ):
            for module, path, name in table:
                if module in sys.modules:
                    self._patch(sys.modules[module], path, make, name)
        cli = sys.modules.get("posetcode.cli")
        if cli is not None:
            for cmd in CLI_COMMANDS:
                command = cli.cli.commands[cmd]
                original = command.callback
                command.callback = self._span_wrapper(original, f"cli.{cmd}")
                self._patches.append((command, "callback", original))
        self._verify()

    def _patch(self, module, path: str, make, name: str) -> None:
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__, name))
            else:
                wrapped = make(raw, name)
            setattr(cls, attr, wrapped)
            self._patches.append((cls, attr, raw))
            return
        original = getattr(module, path)
        wrapped = make(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "posetcode" and not mod_name.startswith("posetcode."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, original))

    def _verify(self) -> None:
        """Fail loudly if any posetcode module still binds an original."""
        originals = {id(orig) for owner, _, orig in self._patches if isinstance(owner, type(sys))}
        for mod_name, mod in sys.modules.items():
            if mod_name == "posetcode" or mod_name.startswith("posetcode."):
                for attr, value in vars(mod).items():
                    if id(value) in originals:
                        raise RuntimeError(f"{mod_name}.{attr} escaped the tracing wrappers")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ------------------------------------------------------

    def summary(self) -> tuple[dict, dict]:
        """(calls, self seconds) per span name, also per split as
        ``name.split`` and per op tag as ``name@tag``; and the counts."""
        agg: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for _, _, name, split, tag, _, _, self_s in self.spans:
            keys = [name]
            if split:
                keys.append(f"{name}.{split}")
            if tag:
                keys.append(f"{name}@{tag}")
            for key in keys:
                entry = agg[key]
                entry[0] += 1
                entry[1] += self_s
        return dict(agg), dict(self.counts)
