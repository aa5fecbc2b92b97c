"""Span tracing of fedmark functions from outside the package.

A `Tracer` replaces each target function with a wrapper at every binding a
caller can look it up by: the defining module's global and every
`from module import name` copy in the other fedmark modules. Each call
records one span (name, start, end, parent) in memory; self time, call
counts and percentiles come from the span tree after the pass. `uninstall`
puts every original binding back.

Some targets also carry a work model: a function of the call's arguments
that returns computed (flops, bytes) for the kernel, so the traced run can
report operation counts that do not depend on timing.
"""

import contextlib
import sys
import time

import numpy as np

ROOT = "bench.pass"


class TraceError(RuntimeError):
    pass


def _matmul_work(m, k, n):
    """Flops and float64 bytes of an (m, k) @ (k, n) product."""
    return 2 * m * k * n, 8 * (m * k + k * n + m * n)


def main_task_work(args, kwargs):
    """Forward and backward matmuls of one minibatch step, from the layer
    shapes: per layer x @ W, x.T @ delta and, below the top layer,
    delta @ W.T."""
    model, batch = args[0], args[1]
    rows = batch.inputs.shape[0]
    flops = nbytes = 0
    for k, spec in enumerate(model.specs):
        for m, inner, n in (
            (rows, spec.input_dim, spec.output_dim),
            (spec.input_dim, rows, spec.output_dim),
        ) + (((rows, spec.output_dim, spec.input_dim),) if k > 0 else ()):
            f, b = _matmul_work(m, inner, n)
            flops += f
            nbytes += b
    return flops, nbytes


def embedding_work(args, kwargs):
    """One projection M.T @ p and one gradient M @ v over an (r, c) matrix."""
    rows, cols = args[1].shape
    f, b = _matmul_work(cols, rows, 1)
    return 2 * f, 2 * b


def extract_private_work(args, kwargs):
    """One projection per head segment; segment lengths follow the
    proportional split rule of `watermark.split_watermark`."""
    spec = args[1]
    sizes = spec.layer_sizes
    total_bits, total = len(spec.bits), sum(sizes)
    counts = [total_bits * s // total for s in sizes[:-1]]
    counts.append(total_bits - sum(counts))
    flops = nbytes = 0
    for size, count in zip(sizes, counts):
        if count:
            f, b = _matmul_work(count, size, 1)
            flops += f
            nbytes += b
    return flops, nbytes


class Tracer:
    """Wraps `targets`, a list of (module, function, work_model or None),
    inside the package named `package`."""

    def __init__(self, package, targets):
        self.package = package
        self.targets = list(targets)
        self.names = [ROOT] + [f"{mod}.{fn}" for mod, fn, _ in self.targets]
        self._patched = []
        self.reset()

    # -- recording -----------------------------------------------------------

    def reset(self):
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self.work = {}  # name -> [flops, bytes]
        self.true_results = {}  # name -> calls that returned True
        self._stack = []

    def _wrap(self, name_id, fn, work_model):
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        name = self.names[name_id]
        tracer = self

        def traced(*args, **kwargs):
            if work_model is not None:
                f, b = work_model(args, kwargs)
                acc = tracer.work.setdefault(name, [0, 0])
                acc[0] += f
                acc[1] += b
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            span_start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if result is True:
                tracer.true_results[name] = tracer.true_results.get(name, 0) + 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def span(self):
        """Record the root span of one pass around the managed block."""
        idx = len(self.span_name)
        self.span_name.append(0)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter()
            self._stack.pop()

    # -- patching ------------------------------------------------------------

    def install(self):
        """Rebind every target at every binding inside the package. Lists
        (buffers) are re-bound by `reset`, so call reset before install."""
        if self._patched:
            raise TraceError("tracer already installed")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for name_id, (mod_name, fn_name, work_model) in enumerate(self.targets, start=1):
            home = sys.modules.get(f"{self.package}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None or not callable(original):
                self.uninstall()
                raise TraceError(f"traced function {mod_name}.{fn_name} does not exist")
            wrapper = self._wrap(name_id, original, work_model)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- analysis ------------------------------------------------------------

    def summary(self):
        """Per function: calls, inclusive and self seconds, and inclusive
        call-duration percentiles, from the span tree recorded since reset."""
        if self._stack:
            raise TraceError("summary taken with spans still open")
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            calls = int(mask.sum())
            entry = {"calls": calls, "s": 0.0, "self_s": 0.0, "p50_s": 0.0, "p99_s": 0.0}
            if calls:
                d = dur[mask]
                entry.update(
                    s=float(d.sum()),
                    self_s=float(self_time[mask].sum()),
                    p50_s=float(np.percentile(d, 50)),
                    p99_s=float(np.percentile(d, 99)),
                )
            flops, nbytes = self.work.get(name, (0, 0))
            entry["flops"], entry["bytes"] = int(flops), int(nbytes)
            entry["true_results"] = int(self.true_results.get(name, 0))
            out[name] = entry
        return out

    def span_arrays(self):
        return {
            "name": np.asarray(self.span_name, dtype=np.int16),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "start": np.asarray(self.span_start),
            "end": np.asarray(self.span_end),
        }
