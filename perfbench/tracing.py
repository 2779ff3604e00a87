"""Outside-in tracing of growthlab's public functions.

``Tracer.install`` wraps, from this file only, every public function of
the traced modules at every module attribute it is bound to (so
``witness.char_poly`` and ``spectra.char_poly`` both record as
``spectra.char_poly``), plus the engine methods on their classes and
``Word.parse``.  Each call records one span -- name, start, end, parent
span, op id -- in compact arrays kept in memory; ``write`` stores them
when the run ends and ``summarize`` turns them into per-layer counts and
self times (span duration minus the time its child spans cover).

With ``threaded=True`` span slots are reserved under a lock and a span
opened on a pool thread takes the innermost open span of the main thread
as its parent; child coverage is then the union of child intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array
from collections import Counter

MODULES = ("wordops", "engines", "growth", "subgroups", "witness", "laurent",
           "spectra", "words", "cli")
ENGINE_CLASSES = {"free": "FreeEngine", "abelian": "AbelianEngine",
                  "klein": "KleinEngine", "bs1": "BS1Engine",
                  "semidirect": "SemidirectEngine"}
ENGINE_METHODS = ("multiply", "invert", "canonical_key")
KERNEL_HOMES = ("growthlab._purewords", "growthlab._fastwords")


def _is_function(value) -> bool:
    return (inspect.isfunction(value) or inspect.isbuiltin(value)
            or isinstance(value, functools._lru_cache_wrapper))


class Tracer:
    def __init__(self, threaded: bool = False):
        self.threaded = threaded
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cross_thread = array("i")  # spans whose parent is on another thread
        self.op = -1
        self.auto_keys: set = set()
        self.variants: Counter = Counter()
        self._local = threading.local()
        self._main_stack: list = []
        self._local.stack = self._main_stack
        self._lock = threading.Lock()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name: str, before=None, after=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        names, parents, ops, starts, ends = (
            self.name, self.parent, self.op_col, self.start, self.end)
        tracer = self

        if not self.threaded:
            stack = self._main_stack

            def traced(*args, **kwargs):
                if before is not None:
                    before(args)
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                ops.append(tracer.op)
                starts.append(0.0)
                ends.append(0.0)
                stack.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    starts[idx] = t0
                    ends[idx] = t1
                if after is not None:
                    after(result)
                return result
        else:
            local, main_stack, lock = self._local, self._main_stack, self._lock
            cross = self.cross_thread

            def traced(*args, **kwargs):
                if before is not None:
                    before(args)
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                with lock:
                    idx = len(names)
                    if stack:
                        parent = stack[-1]
                    elif stack is not main_stack and main_stack:
                        parent = main_stack[-1]
                        cross.append(idx)
                    else:
                        parent = -1
                    names.append(nid)
                    parents.append(parent)
                    ops.append(tracer.op)
                    starts.append(0.0)
                    ends.append(0.0)
                stack.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    starts[idx] = t0
                    ends[idx] = t1
                if after is not None:
                    after(result)
                return result

        functools.update_wrapper(traced, fn)
        return traced

    def install(self) -> None:
        """Wrap the public functions of MODULES wherever they are bound."""
        mods = {m: importlib.import_module(f"growthlab.{m}") for m in MODULES}
        loaded = [m for n, m in sys.modules.items()
                  if n == "growthlab" or n.startswith("growthlab.")]
        hooks = {
            "witness.analyze": (None, self._count_variant),
        }
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not _is_function(fn):
                    continue
                home = getattr(fn, "__module__", "")
                own = home in KERNEL_HOMES if short == "wordops" else home == mod.__name__
                if not own:
                    continue
                name = f"{short}.{attr}"
                wrapped = self.wrap(fn, name, *hooks.get(name, (None, None)))
                for m in loaded:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, a, wrapped)
        engines = mods["engines"]
        for family, cls_name in ENGINE_CLASSES.items():
            cls = getattr(engines, cls_name)
            for meth in ENGINE_METHODS:
                setattr(cls, meth, self.wrap(cls.__dict__[meth],
                                             f"engines.{family}.{meth}"))
        semi = engines.SemidirectEngine
        semi.auto_power = self.wrap(semi.__dict__["auto_power"],
                                    "engines.semidirect.auto_power",
                                    before=self._note_level)
        word = mods["words"].Word
        word.parse = staticmethod(self.wrap(word.__dict__["parse"].__func__,
                                            "words.Word.parse"))

    def _note_level(self, args) -> None:
        # args = (engine, element, k): one automorphism level per engine and k
        self.auto_keys.add((id(args[0]), args[2]))

    def _count_variant(self, cert) -> None:
        self.variants[cert.variant] += 1

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as raw native-endian arrays in ``path`` plus a JSON header."""
        cols = [("name", self.name), ("parent", self.parent), ("op", self.op_col),
                ("start", self.start), ("end", self.end),
                ("cross_thread", self.cross_thread)]
        with open(path, "wb") as fh:
            for _, arr in cols:
                arr.tofile(fh)
        header = {
            "names": self.names,
            "columns": [[n, arr.typecode, len(arr)] for n, arr in cols],
            "distinct_k": len(self.auto_keys),
            "variants": dict(self.variants),
        }
        with open(f"{path}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def load(path) -> dict:
    """Read spans written by ``Tracer.write`` into numpy arrays."""
    import numpy as np

    with open(f"{path}.json", encoding="utf-8") as fh:
        header = json.load(fh)
    out = dict(header)
    offset = 0
    for name, code, count in header["columns"]:
        dtype = np.dtype(code)
        out[name] = np.fromfile(path, dtype=dtype, count=count, offset=offset)
        offset += dtype.itemsize * count
    return out


def summarize(traces: list) -> dict:
    """Per-name calls and self seconds, plus the BFS product count, over
    one or more loaded span sets."""
    import numpy as np

    calls: Counter = Counter()
    self_s: Counter = Counter()
    products = 0
    for tr in traces:
        names = tr["names"]
        name, parent = tr["name"], tr["parent"]
        dur = tr["end"] - tr["start"]
        n = len(name)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n)
        cross = tr["cross_thread"]
        if len(cross):
            covered = _union_coverage(tr, covered, set(parent[cross].tolist()))
        own = dur - covered
        counts = np.bincount(name, minlength=len(names))
        sums = np.bincount(name, weights=own, minlength=len(names))
        for i, label in enumerate(names):
            calls[label] += int(counts[i])
            self_s[label] += float(sums[i])
        if "growth.ball_sizes" in names:
            ball = names.index("growth.ball_sizes")
            mult = np.array([i for i, label in enumerate(names)
                             if label.startswith("engines.") and label.endswith(".multiply")])
            if len(mult):
                is_mult = np.isin(name, mult) & has_parent
                products += int(np.count_nonzero(name[parent[is_mult]] == ball))
    return {"calls": calls, "self_s": self_s, "products": products,
            "distinct_k": sum(tr["distinct_k"] for tr in traces),
            "variants": sum((Counter(tr["variants"]) for tr in traces), Counter())}


def _union_coverage(tr, covered, parents: set):
    """Recompute child coverage as an interval union for the parents
    whose children ran on more than one thread."""
    import numpy as np

    covered = covered.copy()
    parent = tr["parent"]
    for p in parents:
        kids = np.flatnonzero(parent == p)
        spans = sorted(zip(tr["start"][kids].tolist(), tr["end"][kids].tolist()))
        total = 0.0
        cur_s, cur_e = None, None
        for s, e in spans:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        covered[p] = total
    return covered
