"""Span tracing from outside the program.

`Tracer.install()` replaces public callables of the survmamba modules with
wrappers that record spans (name, start, end, parent, thread) in memory.
Spans from evaluate()'s worker threads take the main thread's innermost
open span as their parent.

Self time is computed by a sweep over span boundaries: each instant of
wall time is split evenly among the innermost open spans of the threads
that are working, where a span whose descendant is open on another
thread counts as waiting, not working. On one thread this is a span's
duration minus the time its children cover; across threads the self
times still add up to the wall time that spans cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import weakref

import numpy as np

import survmamba.blocks as sm_blocks
import survmamba.dataio as sm_dataio
import survmamba.fusion as sm_fusion
import survmamba.hierarchy as sm_hierarchy
import survmamba.model as sm_model
import survmamba.numerics as sm_numerics
import survmamba.optim as sm_optim
import survmamba.training as sm_training

HIM_STAGES = ("image", "genomics")
LEVELS = ("fine", "coarse")


def count_tape_nodes(root) -> int:
    """Nodes reachable from root through parents that record gradients,
    the same walk Tensor.backward makes."""
    seen = {id(root)}
    todo = [root]
    while todo:
        node = todo.pop()
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or None, thread id, start seq, end seq];
        # the sequence numbers order events that read the same clock value
        self.spans = []
        self.counts = {"him.block_calls": 0, "numerics.tape_nodes": 0, "scan_state_bytes": 0,
                       "optim.state_bytes": 0}
        self.recording = False  # wrappers record only while set and installed
        self._stacks: dict = {}
        self._main = threading.main_thread().ident
        self._stage_of = weakref.WeakKeyDictionary()  # block -> him stage name
        self._undo = []
        self._seq = itertools.count()

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, *args, **kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and tid != self._main else None
        rec = [name, time.perf_counter(), None, parent, tid, next(self._seq), None]
        self.spans.append(rec)
        stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            rec[6] = next(self._seq)
            stack.pop()

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr)
        wrapper = functools.wraps(orig)(make(orig))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def _named(self, name):
        return lambda orig: lambda *a, **k: self._span(name, orig, *a, **k)

    def install(self):
        named = self._named
        for owner, attr, name in (
            (sm_dataio, "load_dataset", "dataio.load_dataset"),
            (sm_dataio, "load_checkpoint", "dataio.load_checkpoint"),
            (sm_training, "train", "training.train"),
            (sm_training, "evaluate", "training.evaluate"),
            (sm_hierarchy.HistologyEncoder, "__call__", "enc.histology"),
            (sm_hierarchy.GenomicsEncoder, "__call__", "enc.genomics"),
            (sm_model, "fuse_fine", "ifm.fine"),
            (sm_model, "fuse_coarse", "ifm.coarse"),
            (sm_fusion.HazardHead, "__call__", "head"),
            (sm_model, "survival_nll", "head"),
            (sm_blocks, "discretize", "ssm.discretize"),
            (sm_model.SurvMambaModel, "forward", "model.fwd"),
            (sm_optim.RAdam, "step", "optim.step"),
        ) + tuple((sm_training, f, "survstats") for f in
                  ("concordance_index", "kaplan_meier", "logrank_test", "risk_stratify")):
            self._patch(owner, attr, named(name))

        def build(orig):
            def wrapper(*a, **k):
                model = self._span("model.build", orig, *a, **k)
                for mod in HIM_STAGES:
                    for level in LEVELS:
                        for blk in getattr(getattr(model.him, mod), level).blocks:
                            self._stage_of[blk] = f"him.{mod}.{level}"
                return model
            return wrapper

        def him(orig):
            return lambda groups, block, *a, **k: self._span(
                self._stage_of.get(block, "him.unnamed"), orig, groups, block, *a, **k)

        def block_call(orig):
            def wrapper(*a, **k):
                if self.recording:
                    self.counts["him.block_calls"] += 1
                return orig(*a, **k)
            return wrapper

        def scan(orig):
            def wrapper(x, dp, cproj):
                if self.recording:
                    self.counts["scan_state_bytes"] += 3 * dp.Abar.data.nbytes
                return self._span("ssm.scan", orig, x, dp, cproj)
            return wrapper

        def optim_init(orig):
            def wrapper(opt, *a, **k):
                self._span("optim.init", orig, opt, *a, **k)
                if self.recording:
                    self.counts["optim.state_bytes"] = sum(
                        v.nbytes for v in vars(opt).values() if isinstance(v, np.ndarray))
            return wrapper

        def backward(orig):
            def wrapper(root):
                if self.recording:
                    self.counts["numerics.tape_nodes"] += count_tape_nodes(root)
                return self._span("numerics.backward", orig, root)
            return wrapper

        self._patch(sm_training, "build_model", build)
        self._patch(sm_model, "him_fine", him)
        self._patch(sm_model, "him_coarse", him)
        self._patch(sm_blocks.BiMambaBlock, "__call__", block_call)
        self._patch(sm_blocks, "selective_scan_recurrent", scan)
        self._patch(sm_numerics.Tensor, "backward", backward)
        self._patch(sm_optim.RAdam, "__init__", optim_init)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Self time of every span, by the sweep described above."""
        spans = self.spans
        events = []
        for i, (_, start, end, _, _, s0, s1) in enumerate(spans):
            events.append((start, s0, True, i))
            events.append((end, s1, False, i))
        events.sort()
        own = np.zeros(len(spans))
        stacks: dict = {}
        prev = None
        for t, _, is_start, i in events:
            if prev is not None and t > prev:
                tops = [s[-1] for s in stacks.values() if s]
                waiting = set()
                for top in tops:
                    tid = spans[top][4]
                    p = spans[top][3]
                    while p is not None:
                        if spans[p][4] != tid:
                            waiting.add(p)
                        p = spans[p][3]
                working = [s for s in tops if s not in waiting]
                for s in working:
                    own[s] += (t - prev) / len(working)
            prev = t
            stack = stacks.setdefault(spans[i][4], [])
            if is_start:
                stack.append(i)
            else:
                stack.remove(i)
        return own

    def summary(self):
        """(name -> [self seconds, calls, inclusive seconds], total self seconds)."""
        own = self.self_times()
        by_name: dict = {}
        for (name, start, end, *_), s in zip(self.spans, own):
            row = by_name.setdefault(name, [0.0, 0, 0.0])
            row[0] += s
            row[1] += 1
            row[2] += end - start
        return by_name, float(own.sum())

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "thread": t} for n, s, e, p, t, *_ in self.spans]
