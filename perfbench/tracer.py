"""Outside-in tracer for the tca_lab layers.

The tracer changes no file of the program.  It replaces selected public
functions and methods with timing wrappers at every place a ``tca_lab``
module binds them (``torlab`` imports ``Span`` and ``monomials_of_weight``
by name, ``algebra`` imports ``type1_moves`` and ``type2_moves`` by name),
and puts the originals back on ``uninstall``.

A stack of open spans gives each call its parent, so a span's self time is
its duration minus the durations of the traced calls made inside it.  A
``Span.reduce`` made by ``Span.add`` is part of that write and is not a span
of its own: ``Span.reduce`` counts reads only.
"""

import sys
import time

from tca_lab import algebra, matchings, partitions, torlab

# (module, attribute) for every traced callable; "Class.method" is patched
# on the class, so every module that imports the class sees the wrapper.
TRACED = (
    (algebra, "rep_closure"),
    (algebra, "lie_act"),
    (algebra, "Span.add"),
    (algebra, "Span.reduce"),
    (algebra, "monomials_of_weight"),
    (algebra, "EquivariantIdeal.component_span"),
    (algebra, "lowerings_from"),
    (algebra, "verify_move_closure"),
    (algebra, "initial_set"),
    (torlab, "KoszulComplex.strand"),
    (torlab, "KoszulComplex.apply_diff"),
    (torlab, "KoszulComplex.chain_basis"),
    (torlab, "KoszulComplex.quotient_basis"),
    (torlab, "determinantal_ideal"),
    (partitions, "decompose_into_schur"),
    (partitions, "decompose_pair_into_schur"),
    (partitions, "symmetrize_counts"),
    (matchings, "leq_type1"),
    (matchings, "leq_full"),
    (matchings, "type1_moves"),
    (matchings, "type2_moves"),
    (matchings, "degree_one_leq"),
    (matchings, "max_antichain"),
    (matchings, "replay"),
)

ADD = "algebra.Span.add"
REDUCE = "algebra.Span.reduce"
COMPONENT_SPAN = "algebra.EquivariantIdeal.component_span"
QUOTIENT_BASIS = "torlab.KoszulComplex.quotient_basis"
TYPE1_MOVES = "matchings.type1_moves"
DECISIONS = ("matchings.leq_type1", "matchings.leq_full")


def span_name(module, attr):
    return module.__name__.rsplit(".", 1)[-1] + "." + attr


class Tracer:
    """Call counts, total and self seconds per traced callable."""

    def __init__(self):
        self.records = {}     # span name -> [calls, total_s, self_s]
        self.kept_rows = 0    # Span.add calls that stored a row
        self.misses = 0       # quotient_basis calls that reached component_span
        self.bfs_states = 0   # type1_moves calls made directly by leq_*
        self._stack = []      # open spans: [name, seconds of traced children]
        self._patches = []    # (owner, attribute, original)

    def reset(self):
        for rec in self.records.values():
            rec[:] = [0, 0.0, 0.0]
        self.kept_rows = self.misses = self.bfs_states = 0

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("tca_lab") and m is not None]
        for module, attr in TRACED:
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._stack.clear()

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        rec = self.records.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if name == REDUCE and parent == ADD:
                return fn(*args, **kwargs)
            if parent is not None:
                if name == COMPONENT_SPAN and parent == QUOTIENT_BASIS:
                    tracer.misses += 1
                elif name == TYPE1_MOVES and parent in DECISIONS:
                    tracer.bfs_states += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if name == ADD and result is not None:
                tracer.kept_rows += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def metrics(self):
        """Flat ``{metric: value}`` of everything the tracer measured."""
        out = {}
        for name, (calls, total, own) in self.records.items():
            out[name + ".calls"] = calls
            out[name + ".total_s"] = total
            out[name + ".self_s"] = own
        adds = self.records.get(ADD, [0])[0]
        out[ADD + ".kept_ratio"] = self.kept_rows / adds if adds else 0.0
        out[QUOTIENT_BASIS + ".misses"] = self.misses
        decisions = sum(self.records.get(n, [0])[0] for n in DECISIONS)
        out["matchings.bfs.states_per_decision"] = (
            self.bfs_states / decisions if decisions else 0.0)
        return out
