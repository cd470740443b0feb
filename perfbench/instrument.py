"""Function-boundary instrumentation used by the benchmark.

Nothing here changes clipforge: functions are wrapped from outside, on the
module attribute where each caller looks the name up.  A module that did
``from .data import tokenize`` holds its own reference, so every clipforge
module attribute bound to the original function object is replaced, not
only the one in the defining module.

Two modes share one set of hooks:

* untraced (``tracing=False``): only the handful of functions that mark
  step boundaries or carry outputs the checks need are wrapped.  Each call
  costs one extra Python frame and at most one ``perf_counter`` read.
* traced (``tracing=True``): every public function of the seven layers is
  wrapped and records a span ``[name, start, end, parent]``.  Forward tensor
  ops also wrap the node's backward closure, so backward time is recorded per
  op as ``tensor.<op>.bwd``.  Spans stay in memory until the caller writes
  them out.

A *step* is one closed-loop operation: a training step, from the end of the
previous optimizer update (or of the epoch's language sampling) through this
step's optimizer update; or an evaluation query batch, one language in one
direction, from the end of the previous ranking (or of image embedding)
through this language's ranking.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import Counter

perf = time.perf_counter

LAYERS = ("data", "model", "contrastive", "tensor", "optim", "evaluation", "training")
NOT_OPS = ("backward", "topo_order")  # public tensor functions that build no node
OPTIMIZER_STEPS = ("lion_step", "lion8_step", "adamw_step")

# span = [name, start, end, parent id]; a span's id is its index in the list
NAME, START, END, PARENT = range(4)


def public_functions(module):
    """Public functions defined in ``module``, by attribute name."""
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


def tensor_ops(tensor_module):
    """Names of the public tensor functions that create graph nodes."""
    return sorted(n for n in public_functions(tensor_module) if n not in NOT_OPS)


def op_label(function_name: str) -> str:
    return function_name.rstrip("_")  # sum_ / mean_ dodge builtins


class Instrumentation:
    """Installs wrappers on the clipforge modules for one timed call.

    Use as a context manager; every attribute is restored on exit.
    """

    def __init__(self, package, kind: str, tracing: bool, keep_tasks=()):
        if kind not in ("train", "eval"):
            raise ValueError(f"unknown workload kind {kind!r}")
        self.pkg = package
        self.kind = kind
        self.tracing = tracing
        self.keep_tasks = set(keep_tasks)
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.originals = {}  # (layer, name) -> original function
        self._patches = []  # (owner, attribute, original value)

        # step clock and outputs (both modes)
        self.boundary = None
        self.steps = []  # (start, end, parent span id or -1)
        self.step_losses = []
        self._last_loss = None
        self.rank_calls = 0
        self.ranks = []  # one array per rank_items call
        self.tasks = {}  # call index -> RetrievalTask, for the calls in keep_tasks
        self.queries = 0
        self.candidates = 0
        self.samples = 0
        self._batch_rows = 0

        # traced mode
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.state_bytes = 0

    # -- span recording ---------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        self.spans[sid][START] = perf()
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = perf()
        self._stack.pop()

    # -- hooks ------------------------------------------------------------
    def _mark_boundary(self, *_):
        self.boundary = perf()

    def _end_step(self):
        now = perf()
        if self.boundary is not None:
            self.steps.append((self.boundary, now, self._stack[-1] if self._stack else -1))
        self.boundary = now

    def _after_batch_loss(self, args, out, _):
        self._last_loss = float(out.data)

    def _after_optimizer(self, args, out, before):
        self.step_losses.append(self._last_loss)
        self.samples += self._batch_rows
        self._end_step()
        if self.tracing:
            params, state = args[0], args[2]
            self.counts["optim.params_updated"] += sum(
                1 for name, p in params.items() if p.data is not before[name]
            )
            self.state_bytes = state.memory_bytes()

    def _before_optimizer(self, args):
        return {name: p.data for name, p in args[0].items()} if self.tracing else None

    def _before_batch_loss(self, args):
        self._batch_rows = len(args[1])

    def _after_rank(self, args, out, _):
        task = args[0]
        if self.rank_calls in self.keep_tasks:
            self.tasks[self.rank_calls] = task
        self.rank_calls += 1
        self.ranks.append(out)
        self.queries += task.queries.shape[0]
        self.candidates += task.candidates.shape[0]
        self._end_step()

    def _after_encode(self, rows_key):
        def hook(args, out, _):
            self.counts[rows_key] += len(args[1])
            if self.kind == "eval" and rows_key == "model.encode_image_rows":
                self._mark_boundary()

        return hook

    def _after_write(self, args, out, _):
        self.counts["model.checkpoint_write_bytes"] += os.path.getsize(args[0])

    def _before_pixels(self, args):
        return args[0].pixels is None

    def _after_pixels(self, args, out, was_missing):
        if was_missing:
            self.counts["data.pixel_reads"] += 1

    def _after_backward(self, args, out, _):
        order = self.originals[("tensor", "topo_order")](args[0])
        self.counts["tensor.grad_bytes"] += sum(n.data.nbytes for n in order if n.grad is not None)

    def _after_op(self, op):
        span_name = f"tensor.{op}.bwd"
        is_matmul = op == "matmul"

        def hook(args, out, _):
            flop = 2 * out.size * args[0].shape[-1] if is_matmul else 0
            self.counts["tensor.matmul_flop"] += flop
            inner = out._backward
            if inner is None:
                return

            def timed_backward(g):
                sid = self.open(span_name)
                try:
                    return inner(g)
                finally:
                    self.close(sid)
                    self.counts["tensor.matmul_flop"] += 2 * flop

            out._backward = timed_backward

        return hook

    # -- installation -----------------------------------------------------
    def _hooks(self):
        """(layer, function) -> (pre hook, post hook); pre's result goes to post."""
        hooks = {}
        if self.kind == "train":
            hooks[("data", "sample_epoch")] = (None, self._mark_boundary)
            hooks[("training", "batch_loss")] = (self._before_batch_loss, self._after_batch_loss)
            for name in OPTIMIZER_STEPS:
                hooks[("optim", name)] = (self._before_optimizer, self._after_optimizer)
        else:
            hooks[("evaluation", "rank_items")] = (None, self._after_rank)
            hooks[("model", "encode_image")] = (None, self._after_encode("model.encode_image_rows"))
        if not self.tracing:
            return hooks
        hooks.setdefault(("model", "encode_image"), (None, self._after_encode("model.encode_image_rows")))
        hooks[("model", "encode_text")] = (None, self._after_encode("model.encode_text_rows"))
        hooks[("model", "write_tensor_file")] = (None, self._after_write)
        hooks[("tensor", "backward")] = (None, self._after_backward)
        for op in tensor_ops(self.modules["tensor"]):
            hooks[("tensor", op)] = (None, self._after_op(op))
        return hooks

    def _wrap(self, fn, span_name, pre, post):
        if self.tracing:

            def wrapper(*args, **kwargs):
                token = pre(args) if pre is not None else None
                sid = self.open(span_name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(sid)
                if post is not None:
                    post(args, out, token)
                return out

        else:

            def wrapper(*args, **kwargs):
                token = pre(args) if pre is not None else None
                out = fn(*args, **kwargs)
                post(args, out, token)
                return out

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        hooks = self._hooks()
        targets = {}
        for layer, module in self.modules.items():
            for name, fn in public_functions(module).items():
                self.originals[(layer, name)] = fn
                if self.tracing or (layer, name) in hooks:
                    pre, post = hooks.get((layer, name), (None, None))
                    targets[fn] = self._wrap(fn, f"{layer}.{name}", pre, post)
        missing = [key for key in hooks if key not in self.originals]
        if missing:
            raise RuntimeError(f"instrumented functions not found in clipforge: {missing}")
        # replace every module attribute bound to a wrapped function
        for module in vars(self.pkg).values():
            if inspect.ismodule(module) and module.__name__.startswith(self.pkg.__name__ + "."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in targets:
                        self._patch(module, attr, targets[value])
        if self.tracing:
            cls = self.modules["data"].CaptionedImage
            original = cls.get_pixels
            self._patch(cls, "get_pixels", self._wrap(original, "data.get_pixels", self._before_pixels, self._after_pixels))
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        return False

    def step_durations_ms(self):
        return [(end - start) * 1e3 for start, end, _ in self.steps]


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------


def add_step_spans(inst: Instrumentation, step_name: str) -> list:
    """Insert one span per step and re-parent the spans it covers.

    Returns the step id of every span (-1 outside steps).  A step's span takes
    the parent that was open when the step ended; that parent's children
    lying inside the step interval become the step span's children.
    """
    spans = inst.spans
    children = {}
    for sid, span in enumerate(spans):
        children.setdefault(span[PARENT], []).append(sid)
    step_of = [-1] * len(spans)
    for step_id, (start, end, parent) in enumerate(inst.steps):
        sid = len(spans)
        spans.append([step_name, start, end, parent])
        step_of.append(step_id)
        for child in children.get(parent, ()):
            if spans[child][START] >= start and spans[child][END] <= end:
                spans[child][PARENT] = sid
                _mark_subtree(child, step_id, children, step_of)
    return step_of


def _mark_subtree(root, step_id, children, step_of):
    pending = [root]
    while pending:
        sid = pending.pop()
        step_of[sid] = step_id
        pending.extend(children.get(sid, ()))


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def _nearest(spans, sid, names, memo):
    """Name of the nearest proper ancestor of ``sid`` named in ``names``, or None.

    ``memo`` caches, per span, the answer counting the span itself.
    """
    path, found = [], None
    parent = spans[sid][PARENT]
    while parent >= 0:
        if parent in memo:
            found = memo[parent]
            break
        path.append(parent)
        if spans[parent][NAME] in names:
            found = spans[parent][NAME]
            break
        parent = spans[parent][PARENT]
    for node in path:
        memo[node] = found
    return found


def layer_metrics(inst: Instrumentation, tensor_module) -> tuple:
    """Per-layer metrics of one traced timed call.

    Returns ``(metrics, step_of)``: metrics maps name -> (value, unit); times
    and counts are totals over the call unless the name says per step or per
    forward.  ``step_of`` gives each span's step id, for writing spans out.
    """
    step_name = "training.step" if inst.kind == "train" else "evaluation.query_batch"
    step_of = add_step_spans(inst, step_name)
    spans = inst.spans
    own = self_times(spans)
    incl, calls, layer_self = Counter(), Counter(), Counter()
    for sid, span in enumerate(spans):
        incl[span[NAME]] += span[END] - span[START]
        calls[span[NAME]] += 1
        layer_self[span[NAME].split(".")[0]] += own[sid]
    steps = len(inst.steps)
    per_step = 1.0 / steps if steps else 0.0
    ops = tensor_ops(tensor_module)
    op_spans = {f"tensor.{op}" for op in ops}
    counts = inst.counts

    m = {}
    for op in ops:
        label = op_label(op)
        m[f"tensor.fwd_ms.{label}"] = (incl[f"tensor.{op}"] * 1e3, "ms")
        m[f"tensor.bwd_ms.{label}"] = (incl[f"tensor.{op}.bwd"] * 1e3, "ms")
        m[f"tensor.calls.{label}"] = (calls[f"tensor.{op}"], "count")
    m["tensor.fwd_ms"] = (sum(incl[name] for name in op_spans) * 1e3, "ms")
    m["tensor.bwd_ms"] = (sum(incl[f"{name}.bwd"] for name in op_spans) * 1e3, "ms")
    m["tensor.backward_ms"] = (incl["tensor.backward"] * 1e3 * per_step, "ms/step")
    step_nodes = sum(1 for sid, span in enumerate(spans) if span[NAME] in op_spans and step_of[sid] >= 0)
    m["tensor.nodes"] = (step_nodes * per_step, "count/step")
    m["tensor.grad_bytes"] = (counts["tensor.grad_bytes"] * per_step, "B/step")
    m["tensor.matmul_gflop"] = (counts["tensor.matmul_flop"] / 1e9, "GFLOP")

    encoders = {"model.encode_image", "model.encode_text"}
    memo = {}
    nodes_under = Counter()
    for sid, span in enumerate(spans):
        if span[NAME] in op_spans:
            nodes_under[_nearest(spans, sid, encoders, memo)] += 1
    for tower in ("image", "text"):
        name = f"model.encode_{tower}"
        m[f"{name}_ms"] = (incl[name] * 1e3, "ms")
        m[f"{name}_calls"] = (calls[name], "count")
        m[f"{name}_rows"] = (counts[f"{name}_rows"], "count")
        m[f"model.{tower}_nodes"] = (nodes_under[name] / calls[name] if calls[name] else 0.0, "count/forward")
    m["model.checkpoint_write_ms"] = (
        (incl["model.write_tensor_file"] + _own_total(spans, own, "model.save_checkpoint")) * 1e3,
        "ms",
    )
    m["model.checkpoint_write_bytes"] = (counts["model.checkpoint_write_bytes"], "B")
    m["model.checkpoint_read_ms"] = (
        (incl["model.read_tensor_file"] + _own_total(spans, own, "model.load_checkpoint")) * 1e3,
        "ms",
    )

    m["contrastive.loss_ms"] = ((incl["contrastive.similarity"] + incl["contrastive.clip_loss"]) * 1e3, "ms")

    m["optim.step_ms"] = (sum(incl[f"optim.{name}"] for name in OPTIMIZER_STEPS) * 1e3, "ms")
    m["optim.quantize_ms"] = ((incl["optim.quantize_block"] + incl["optim.dequantize_block"]) * 1e3, "ms")
    m["optim.state_bytes"] = (inst.state_bytes, "B")
    m["optim.params_updated"] = (counts["optim.params_updated"] * per_step, "count/step")

    m["data.pixels_ms"] = (incl["data.get_pixels"] * 1e3, "ms")
    m["data.pixel_reads"] = (counts["data.pixel_reads"], "count")
    m["data.tokenize_ms"] = (incl["data.tokenize"] * 1e3, "ms")
    m["data.tokenize_calls"] = (calls["data.tokenize"], "count")
    m["data.sample_epoch_ms"] = (incl["data.sample_epoch"] * 1e3, "ms")

    memo = {}
    embed = sum(
        span[END] - span[START]
        for sid, span in enumerate(spans)
        if span[NAME] in encoders and _nearest(spans, sid, {"evaluation.evaluate"}, memo)
    )
    m["evaluation.embed_ms"] = (embed * 1e3, "ms")
    m["evaluation.rank_ms"] = (incl["evaluation.rank_items"] * 1e3, "ms")
    m["evaluation.queries"] = (inst.queries, "count")
    m["evaluation.candidates"] = (inst.candidates, "count")

    writes = {"model.save_checkpoint", "model.write_tensor_file"}
    memo, run_memo = {}, {}
    checkpoint = sum(
        span[END] - span[START]
        for sid, span in enumerate(spans)
        if span[NAME] in writes
        and _nearest(spans, sid, writes, memo) is None
        and _nearest(spans, sid, {"training.run_training"}, run_memo)
    )
    train_steps = steps if inst.kind == "train" else 0
    m["training.step_self_ms"] = (_own_total(spans, own, "training.step") * 1e3, "ms")
    m["training.val_loss_ms"] = (incl["training.dataset_loss"] * 1e3, "ms")
    m["training.checkpoint_ms"] = (checkpoint * 1e3, "ms")
    m["training.steps"] = (train_steps, "count")

    for layer in LAYERS + ("bench",):
        m[f"self_ms.{layer}"] = (layer_self[layer] * 1e3, "ms")
    step_wall = sum(end - start for start, end, _ in inst.steps)
    inside = sum(own[sid] for sid in range(len(spans)) if step_of[sid] >= 0 and spans[sid][NAME] != step_name)
    m["trace.step_accounted_pct"] = (100.0 * inside / step_wall if step_wall else 0.0, "%")
    m["trace.spans"] = (len(spans), "count")
    return m, step_of


def _own_total(spans, own, name):
    return sum(own[sid] for sid, span in enumerate(spans) if span[NAME] == name)
