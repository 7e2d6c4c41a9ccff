"""In-memory span tracer for the benchmark's traced run.

`installed` wraps the public entry points of each package layer, plus the
numpy/scipy FFT and `numpy.linalg.eigh`, with recorders that do nothing
until `Tracer.active` is set. A span is (name, start, end, parent index);
a name's self time is its span time minus the time its child spans cover.
Counts are recorded at the same boundaries. Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import numpy.fft
import numpy.linalg
import scipy.fft

from boussinesq_lab import cli, ensembles, hormander, noise, spectral, stepping, variation

FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def _fft_counts(args, kwargs, result):
    a = np.asarray(args[0])
    return {"points": a.size, "bytes_computed": a.nbytes + np.asarray(result).nbytes}


def _rows(args, kwargs, result):
    # (self, w, t) or (self, prep, w, t): either way args[2] is a (rows, n, n) stack
    return {"rows": len(args[2])}


# (span name, owner, attribute, extra counts from (args, kwargs, result))
TARGETS = (
    [("spectral.fft", numpy.fft, name, _fft_counts) for name in FFT_NAMES]
    + [("spectral.fft", scipy.fft, name, _fft_counts) for name in FFT_NAMES]
    + [
        ("spectral.nonlinear_B", spectral, "nonlinear_B", None),
        ("spectral.norms", spectral, "sobolev_sq", None),
        ("spectral.norms", spectral, "weighted_norm", None),
        ("stepping.advance", stepping.Stepper, "advance", None),
        ("stepping.simulate", stepping, "simulate", None),
        ("ensembles.batch_advance", ensembles.BatchRunner, "advance", _rows),
        ("ensembles.run", ensembles.BatchRunner, "run", None),
        ("ensembles.sample_noise_batch", ensembles, "sample_noise_batch", None),
        ("noise.sample_subordinator", noise, "sample_subordinator", None),
        ("noise.stopping_times", noise, "stopping_times", None),
        ("variation.prepare", variation.Linearizer, "prepare", None),
        ("variation.tangent", variation.Linearizer, "tangent", _rows),
        ("variation.adjoint", variation.Linearizer, "adjoint", _rows),
        ("variation.malliavin_forward", variation, "malliavin_forward", None),
        ("variation.malliavin_backward", variation, "malliavin_backward", None),
        ("variation.min_eigen_probe", variation, "min_eigen_probe", None),
        ("variation.eigh", numpy.linalg, "eigh", None),
        ("hormander.span_generation", hormander, "span_generation", None),
        ("hormander.verify_span", hormander, "verify_span",
         lambda args, kwargs, result: {"checks": result["checked"]}),
        ("cli.write_snapshots", cli, "write_snapshots", None),
    ]
)


class Tracer:
    def __init__(self):
        self.active = False
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []       # [name, start, end, parent index or -1]
        self._stack: list[list] = []      # open spans: [span index, time covered by children]
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        idx, covered = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        self.total_s[span[0]] += dur
        self.self_s[span[0]] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one CLI command."""
        if not self.active:
            yield
            return
        self._open(name)
        try:
            yield
        finally:
            self._close()
        self.counts[name + ".calls"] += 1

    def wrap(self, name: str, fun, extra=None):
        @functools.wraps(fun)
        def traced(*args, **kwargs):
            if not self.active:
                return fun(*args, **kwargs)
            self._open(name)
            try:
                result = fun(*args, **kwargs)
            finally:
                self._close()
            self.counts[name + ".calls"] += 1
            if extra is not None:
                for key, val in extra(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += int(val)
            return result
        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target, and every package global bound to one, then restore."""
    undo = []
    modules = [m for name, m in sys.modules.items()
               if name == "boussinesq_lab" or name.startswith("boussinesq_lab.")]
    try:
        for name, owner, attr, extra in TARGETS:
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = tracer.wrap(name, orig, extra)
            undo.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
