"""Spans around the public functions of each ``precisionlab`` layer.

Nothing under ``src/`` is edited: :meth:`Tracer.install` swaps module and
class attributes for timed wrappers and :meth:`Tracer.uninstall` puts the
originals back.  Spans live in memory until :meth:`Tracer.write`.

Three steps have no public function of their own (the Gram product inside
``wishart_samples``, the projection inside ``deficient_batches`` and the
fixed-direction projection inside ``Ensemble.sample_many``).  They are
replayed here from the public primitives with the same arithmetic in the
same draw order; the caller checks that traced output equals untraced
output byte for byte.  Normal draws are counted by wrapping the generator of
every ``RngStream`` built while tracing is installed.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

import numpy as np

import precisionlab.cli as cli
import precisionlab.conditional as conditional
import precisionlab.detection as detection
import precisionlab.matcore as matcore
import precisionlab.sampler as sampler
import precisionlab.tvbounds as tvbounds
from precisionlab.sampler import RngStream


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, float, float, int]] = []  # name, parent, start, end, items
        self.counters: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def timed(self, name: str, fn, args=(), kwargs=None, items: int = 0):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        self.spans.append((name, parent, 0.0, 0.0, items))
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[idx] = (name, parent, start, end, items)

    def count(self, name: str, items: int) -> None:
        self.counters[name] += int(items)

    def wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.timed(name, fn, args, kwargs)

        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        t = self
        rng_init = RngStream.__init__

        def traced_rng_init(stream, seed, stream_id=0):
            rng_init(stream, seed, stream_id)
            stream.gen = _TracedGenerator(stream.gen, t)

        self._patch(RngStream, "__init__", traced_rng_init)

        subspace = self.wrapper("sampler.subspace", sampler.random_subspace_basis)
        self._patch(sampler, "random_subspace_basis", subspace)
        self._patch(detection, "random_subspace_basis", subspace)

        gram = self.wrapper("wishart.gram", detection.gram_many)
        self._patch(detection, "gram_many", gram)
        logdet = self.wrapper("wishart.logdet", detection.logdet_trace_many)
        self._patch(detection, "logdet_trace_many", logdet)
        self._patch(tvbounds, "logdet_trace_many", logdet)

        def wishart_samples(params, count, rng):
            # Replay of wishart.wishart_samples: the same normals, then the Gram product.
            n, p = params
            return gram(sampler.standard_batches(int(p), int(n), count, rng))

        self._patch(tvbounds, "wishart_samples", wishart_samples)

        run_batched = tvbounds.run_batched

        def counted_run_batched(*args, **kwargs):
            parts = run_batched(*args, **kwargs)
            t.count("tvbounds.values_bytes", sum(np.asarray(p).nbytes for p in parts))
            return parts

        self._patch(tvbounds, "run_batched", counted_run_batched)
        self._patch(cli, "tv_report", self.wrapper("tvbounds.tv_report", cli.tv_report))

        def deficient_batches(d, k, n, count, rng):
            # Replay of sampler.deficient_batches: normals, basis, projection.
            x = sampler.standard_batches(d, n, count, rng)
            b = subspace(d, k, count, rng)
            return t.timed("sampler.project", lambda: x - (x @ b.transpose(0, 2, 1)) @ b)

        self._patch(detection, "deficient_batches", deficient_batches)
        sample_many = detection.Ensemble.sample_many

        def traced_sample_many(ens, n, count, rng):
            if ens.kind != "deficient-fixed":
                return t.timed("detection.sample", sample_many, (ens, n, count, rng))

            def fixed():
                # Replay of the fixed-direction branch of Ensemble.sample_many.
                x = detection.standard_batches(ens.dim, n, count, rng)
                th = ens.theta
                return t.timed("sampler.project",
                               lambda: x - (x @ th)[:, :, None] * th[None, None, :])

            return t.timed("detection.sample", fixed)

        self._patch(detection.Ensemble, "sample_many", traced_sample_many)
        self._patch(detection, "evaluate_batches",
                    self.wrapper("detection.evaluate", detection.evaluate_batches))

        alpha_mc = cli.alpha_monte_carlo

        def traced_alpha(*args, **kwargs):
            est = t.timed("conditional.alpha_mc", alpha_mc, args, kwargs)
            t.count("conditional.accepted", est.accepted)
            t.count("conditional.proposed", est.proposals)
            return est

        self._patch(cli, "alpha_monte_carlo", traced_alpha)

        eigh = self.wrapper("matcore.eigh", matcore.psd_eigh)
        self._patch(matcore, "psd_eigh", eigh)
        self._patch(conditional, "psd_eigh", eigh)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- reporting --------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: total and self seconds, calls and items; plus the counters."""
        out: dict = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0, "items": 0})
        for name, parent, start, end, n_items in self.spans:
            row = out[name]
            row["total_s"] += end - start
            row["self_s"] += end - start
            row["calls"] += 1
            row["items"] += n_items
            if parent >= 0:
                out[self.spans[parent][0]]["self_s"] -= end - start
        return {"spans": dict(out), "counters": dict(self.counters)}

    def write(self, fh, phase: str) -> None:
        """Append one JSON line per span, [phase, name, parent, start, end, items],
        then one line of counters."""
        for span in self.spans:
            fh.write(json.dumps([phase, *span]) + "\n")
        fh.write(json.dumps({"phase": phase, "counters": dict(self.counters)}) + "\n")


class _TracedGenerator:
    """Forwards to a numpy Generator, timing and counting standard normal draws."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, size=None, *args, **kwargs):
        items = 1 if size is None else int(np.prod(size))
        return self._tracer.timed("sampler.normals", self._gen.standard_normal,
                                  (size, *args), kwargs, items)

    def __getattr__(self, name):
        return getattr(self._gen, name)
