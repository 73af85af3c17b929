"""Timing and tracing for the benchmark.

``Meter`` times calls in reference seconds.  The CPU of a small shared
machine drifts in speed by up to 1.8x over seconds, and thread CPU time
drifts with wall time, so a wall time alone does not repeat from run to
run.  A fixed probe loop is timed right before and right after every
timed call, and every ``TIMER_S`` during it, from an interval-timer
signal handler in the same thread.  The call's wall time, less the time
of the probes inside it, is scaled by ``PROBE_REF_S`` over the mean of
the probe times: a call that took 0.5 s while the probe ran at half its
reference speed counts as 0.25 s.  The probe frees what it allocates at
once, so it triggers no garbage collection and its cost does not depend
on what else the process holds.

``Tracer`` keeps spans in memory: a name, a start, an end, the index of
the enclosing span, the round, a size (tones, where the caller gives
one) and the scale the meter applied to the call that contains it.
Span times leave out the probes too.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager
from importlib import import_module

# The probe's time in the fast phases of the 2-CPU machine the figures
# in README.md come from.  It fixes the unit: one reference second is a
# wall second at that speed.
PROBE_REF_S = 0.0021
# Interval of the probes inside a timed call.
TIMER_S = 0.04
# Per-item timings (such as one decoded turn each) are grouped into
# chunks of at least this much wall time, scaled together.
CHUNK_S = 0.04

_INT_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(256)}
_PAIR_TABLE = {(a, b): a ^ b for a in range(64) for b in range(64)}


class _Key:
    """Hashed in Python code, as the program's enum symbols are."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __hash__(self):
        return hash(self.v)

    def __eq__(self, other):
        return self.v == other.v


_KEYS = [_Key(i) for i in range(16)] * 4
_KEY_INDEX = {k: i for i, k in enumerate(_KEYS[:16])}


class _Counter:
    def __init__(self):
        self.n = 0

    @property
    def size(self):
        return self.n + 16

    def bump(self, key):
        self.n = (self.n + _KEY_INDEX[key]) & 0xFF


_LONG_TUPLE = tuple(range(1500))


def probe() -> float:
    """Wall time of the fixed probe.

    About 40% of it is tight loops over small-int and tuple-keyed lookups,
    40% is Python calls, properties, slices and keys hashed in Python, and
    20% copies long tuples through a 100 kB ring, as the decoder's DP
    does.  A slow phase of the CPU slows these kinds of work by different
    factors; each part alone tracks some of the program's operations less
    closely than the mix does.
    """
    ints, pairs, keys = _INT_TABLE, _PAIR_TABLE, _KEYS
    ring = [_LONG_TUPLE] * 8
    acc = 0
    t0 = time.perf_counter()
    for i in range(7_000):
        acc = (acc + ints[i & 255]) & 0xFFFF
    for i in range(1_700):
        acc = (acc + pairs.get((i & 63, (i >> 6) & 63), 0)) & 0xFFFF
    counter = _Counter()
    for i in range(1_700):
        window = keys[i & 31 : (i & 31) + 4]
        counter.bump(window[0])
        acc = (acc + counter.size + math.floor(math.log(acc + 1))) & 0xFFFF
    for i in range(54):
        ring[i & 7] = ring[(i + 3) & 7][1:] + (i & 1,)
    return time.perf_counter() - t0


class Meter:
    """Times calls in reference seconds and counts them.

    Installs a SIGALRM handler; the timer runs only inside timed calls.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.calls = 0
        self._probe_s = 0.0  # wall time of the probes run inside timed calls
        self._readings = [probe()]
        signal.signal(signal.SIGALRM, self._on_timer)
        if tracer is not None:
            tracer.clock = self.clock

    def clock(self) -> float:
        """Wall time less the probes run inside timed calls."""
        return time.perf_counter() - self._probe_s

    def _on_timer(self, signum, frame):
        t0 = time.perf_counter()
        self._readings.append(probe())
        self._probe_s += time.perf_counter() - t0

    @contextmanager
    def _scaled(self, scales: list):
        """Times the block's probes; appends its scale to ``scales``."""
        mark = self.tracer.mark() if self.tracer else 0
        self._readings = self._readings[-1:]
        signal.setitimer(signal.ITIMER_REAL, TIMER_S, TIMER_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._readings.append(probe())
        scale = PROBE_REF_S / statistics.fmean(self._readings)
        if self.tracer is not None:
            self.tracer.set_scale(mark, scale)
        scales.append(scale)

    def call(self, fn, *args):
        """(result, reference seconds) of one call."""
        scale = []
        with self._scaled(scale):
            t0 = self.clock()
            out = fn(*args)
            raw = self.clock() - t0
        self.calls += 1
        return out, raw * scale[0]

    def call_each(self, fn, items):
        """Results and reference seconds of ``fn(item)`` per item."""
        outs, times = [], []
        clock = self.clock
        pos = 0
        while pos < len(items):
            start, scale = pos, []
            with self._scaled(scale):
                chunk_end = clock() + CHUNK_S
                while pos < len(items):
                    t0 = clock()
                    outs.append(fn(items[pos]))
                    t1 = clock()
                    times.append(t1 - t0)
                    pos += 1
                    if t1 >= chunk_end:
                        break
            for j in range(start, pos):
                times[j] *= scale[0]
        self.calls += len(items)
        return outs, times


# Public functions wrapped in the traced run, by module.  The CLI
# imports them by name, so the wrappers are installed in ``tonoseg.cli``
# as well as handed to the benchmark's own library calls.
PUBLIC = {
    "synth": ("sample_corpus",),
    "formats": (
        "parse_corpus",
        "serialize_corpus",
        "save_model",
        "load_model",
        "serialize_segmentation",
        "parse_segmentation",
    ),
    "core": ("encode_corpus",),
    "grammar": ("train", "marginal_entropy", "model_entropy"),
    "segment": ("segment_corpus", "segment_turn"),
    "evaluate": ("confusion", "metrics", "format_report_kv"),
}

NAME, START, END, PARENT, ROUND, SIZE, SCALE = range(7)
FIELDS = ("name", "start", "end", "parent", "round", "size", "scale")


class Tracer:
    """In-memory spans around calls into public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.round = -1
        self.clock = time.perf_counter  # replaced by the meter's clock
        self._stack: list[int] = []

    def mark(self) -> int:
        return len(self.spans)

    def set_scale(self, mark: int, scale: float):
        for span in self.spans[mark:]:
            span[SCALE] = scale

    def wrap(self, name: str, fn, size=None):
        """``fn`` recording one span per call; ``size(args)`` gives its size."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round,
                    size(args) if size else None, 1.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = self.clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, cli_module):
        """Route the CLI's calls into public functions through spans."""
        saved = {}
        for module, names in PUBLIC.items():
            for name in names:
                if name in vars(cli_module):
                    saved[name] = getattr(cli_module, name)
                    setattr(cli_module, name, self.wrap(f"{module}.{name}", saved[name]))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(cli_module, name, fn)


def library(tracer: Tracer | None):
    """The public functions the benchmark calls itself, traced or not."""
    out = {}
    for module, names in PUBLIC.items():
        mod = import_module(f"tonoseg.{module}")
        for name in names:
            fn = getattr(mod, name)
            if tracer is not None:
                size = (lambda args: len(args[1])) if name == "segment_turn" else None
                fn = tracer.wrap(f"{module}.{name}", fn, size)
            out[name] = fn
    return out
