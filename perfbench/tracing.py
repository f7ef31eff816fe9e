"""Span tracing of advm's layers from outside the package.

The tracer wraps the public functions of each layer module, a few
`Model` methods and the click command callbacks. Because modules bind
each other's functions with `from .tensor import ...`, every advm module
attribute that holds a wrapped function is patched, so a call from
`attacks` or `transforms` is caught as well as a call through the
defining module. Patches go in with `install()` and come out with
`uninstall()`; with none installed the program runs untouched.

A span records its name, start, end, parent span and the id of the
image being attacked (-1 outside an attack). Spans stay in memory and
are written once, by `write_tsv`, when the run ends. Self time is a
span's duration minus the durations of its direct children.
"""

import functools
import inspect
import itertools
import sys
import threading
import time

# Layer modules whose public functions are wrapped, by short layer name.
LAYERS = ("models", "transforms", "tensor", "sampling", "attacks",
          "evaluate", "data", "cli", "fileio")

# Model methods worth a span of their own, with their span names.
MODEL_METHODS = {
    "forward_with_cache": "models.forward",
    "input_grad_from_dlogits": "models.input_grad",
    "param_grads_from_dlogits": "models.param_grads",
    "loss_and_grad": "models.loss_and_grad",
    "loss_and_param_grads": "models.loss_and_param_grads",
    "predict": "models.predict",
}

# click commands whose callbacks get spans.
CLI_COMMANDS = {"train": "cli.train", "attack_cmd": "cli.attack", "eval_cmd": "cli.eval"}


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self):
        # finished spans: (id, name, start_ns, end_ns, parent_id, image_id, child_ns)
        self.spans = []
        self.image_variant = {}   # image id -> attack variant
        self.bytes_written = 0
        self.dim_draws = 0
        self.dim_taken = 0
        self._ids = itertools.count()
        self._images = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []        # (owner, attribute, original, wrapper)

    # -- recording -------------------------------------------------------

    def _span(self, name, fn):
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(ids), 0]           # [span id, child_ns]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append((frame[0], name, start, end,
                              parent[0] if parent is not None else -1,
                              getattr(local, "image", -1), frame[1]))

        return wrapper

    def _image_scope(self, fn):
        """attack_one(oracle, x, y, cfg, example_index): tag its spans with a fresh image id."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(oracle, x, y, cfg, example_index):
            image = next(self._images)
            self.image_variant[image] = cfg.variant
            prev = getattr(local, "image", -1)
            local.image = image
            try:
                return fn(oracle, x, y, cfg, example_index)
            finally:
                local.image = prev

        return wrapper

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def wrapper(path, data):
            with self._lock:
                self.bytes_written += len(data)
            return fn(path, data)

        return wrapper

    def _count_dim(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            geometry = fn(*args, **kwargs)
            with self._lock:
                self.dim_draws += 1
                self.dim_taken += geometry is not None
            return geometry

        return wrapper

    # -- patching --------------------------------------------------------

    def _prepare(self):
        """Build the patch list once; `install`/`uninstall` then only set attributes."""
        advm_modules = [m for n, m in sorted(sys.modules.items())
                        if (n == "advm" or n.startswith("advm.")) and m is not None]
        wrapped = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"advm.{layer}"]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self._span(f"{layer}.{attr}", obj)
                if (layer, attr) == ("attacks", "attack_one"):
                    wrapper = self._image_scope(wrapper)
                elif (layer, attr) == ("fileio", "atomic_write_bytes"):
                    wrapper = self._count_bytes(wrapper)
                elif (layer, attr) == ("transforms", "draw_dim_geometry"):
                    wrapper = self._count_dim(wrapper)
                wrapped[id(obj)] = (obj, wrapper)
        # every module-level binding of a wrapped function, wherever imported
        for module in advm_modules:
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None:
                    self._patches.append((module, attr, obj, hit[1]))
        model_cls = sys.modules["advm.models"].Model
        for attr, name in MODEL_METHODS.items():
            original = model_cls.__dict__[attr]
            self._patches.append((model_cls, attr, original, self._span(name, original)))
        cli = sys.modules["advm.cli"]
        for attr, name in CLI_COMMANDS.items():
            command = getattr(cli, attr)
            self._patches.append(
                (command, "callback", command.callback, self._span(name, command.callback)))

    def install(self):
        if not self._patches:
            self._prepare()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write_tsv(self, path: str) -> None:
        """All spans, ordered by id: id, name, start_ns, end_ns, parent_id, image_id."""
        lines = ["id\tname\tstart_ns\tend_ns\tparent_id\timage_id"]
        for span in sorted(self.spans):
            lines.append("\t".join(str(v) for v in span[:6]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


class Summary:
    """Per-name call count, total and self time over a slice of spans."""

    def __init__(self, spans):
        self.calls, self.total_ns, self.self_ns = {}, {}, {}
        for _id, name, start, end, _parent, _image, child_ns in spans:
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + dur
            self.self_ns[name] = self.self_ns.get(name, 0) + dur - child_ns

    def count(self, name) -> int:
        return self.calls.get(name, 0)

    def total_s(self, name) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_s(self, name) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def mean_s(self, name, own=False) -> float:
        """Mean seconds per call (own=True: self time); 0 for a name never called."""
        n = self.count(name)
        if not n:
            return 0.0
        return (self.self_ns if own else self.total_ns)[name] / n / 1e9

    def mean_us(self, name, own=False) -> float:
        return self.mean_s(name, own) * 1e6
