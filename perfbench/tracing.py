"""Per-layer tracing of wptdas from outside the program.

The tracer replaces a public function or method with a wrapper that records
a span around the call and returns the call's result untouched. Functions
are wrapped in every ``wptdas`` module that holds the name, because a
``from .x import f`` binds ``f`` in the importing module and that binding is
the one the caller looks up. Methods are wrapped on their class. A name that
no module holds any more is reported absent, not as an error.

Self time is a span's duration minus the time covered by its child spans.
A call made inside a span of the same name (``apply_strategy`` calling
``select_joint``) belongs to the enclosing span and is not counted again.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

_perf_counter = time.perf_counter


@dataclass(frozen=True)
class SpanSpec:
    name: str
    functions: tuple = ()  # module-level names, wrapped where they are bound
    methods: tuple = ()  # (class name, attribute) pairs, wrapped on the class
    observe: str | None = None  # Tracer method that reads the call's result


SPANS = (
    SpanSpec("selection.from_powers", methods=(("CandidateMatrix", "from_powers"),)),
    SpanSpec("selection.select", functions=("apply_strategy", "select_joint",
                                            "select_frequency_only",
                                            "select_antenna_only", "no_selection")),
    SpanSpec("channel.response_matrix", functions=("response_matrix",)),
    SpanSpec("rectenna.efficiency", methods=(("EfficiencyCurve", "efficiency"),)),
    SpanSpec("signal_chain.dc_power_matrix", functions=("dc_power_matrix",),
             observe="_observe_dc_matrix"),
    SpanSpec("rectenna.settling_energy", functions=("settling_energy",)),
    SpanSpec("protocol.adc_quantize", methods=(("AdcModel", "quantize"),)),
    SpanSpec("protocol.run_frame", functions=("run_frame",), observe="_observe_frame"),
    SpanSpec("scheduler.run_tdma", functions=("run_tdma",)),
    SpanSpec("rng.substream", functions=("substream",)),
    SpanSpec("channel.sample_channel", functions=("sample_channel",)),
    SpanSpec("experiments.run", functions=("run_sweep", "run_protocol_experiment")),
    SpanSpec("cli.to_csv", methods=(("ExperimentResult", "to_csv"),)),
    SpanSpec("cli.load_settings", functions=("load_settings",)),
)

# Spans whose call counts are reported, and spans whose self time is; the
# derived metrics and the overhead are (metric, unit, better).
CALL_SPANS = ("selection.from_powers", "selection.select", "channel.response_matrix",
              "rectenna.efficiency", "signal_chain.dc_power_matrix",
              "rectenna.settling_energy", "protocol.adc_quantize", "protocol.run_frame",
              "scheduler.run_tdma", "rng.substream", "channel.sample_channel")
SELF_SPANS = CALL_SPANS + ("experiments.run", "cli.to_csv", "cli.load_settings")
DERIVED = (
    ("signal_chain.useful_pairs_ratio", "ratio", "higher"),
    ("protocol.link_delivered_ratio", "ratio", "higher"),
    ("protocol.feedback_fallback", "count", "lower"),
)
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio", "lower")


def per_layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span in SELF_SPANS:
        if span in CALL_SPANS:
            out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
    return out + list(DERIVED) + [OVERHEAD_METRIC]


def wptdas_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "wptdas" or name.startswith("wptdas."))]


class Tracer:
    """Collects call counts, self time and a few result-derived counts."""

    def __init__(self):
        self._patches: list = []  # (owner, attribute, original) in install order
        self._stack: list = []  # open spans: [name, child seconds]
        self.present: set = set()  # span names that install() found
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.dc_entries = 0
        self.messages_sent = 0
        self.messages_dropped = 0
        self.fallbacks = 0
        self.frames_observed = 0

    # -- installing -------------------------------------------------------
    def install(self, modules=None):
        """Wrap every traced name found in ``modules`` (default: wptdas)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = wptdas_modules() if modules is None else modules
        self.present = set()
        patched_classes = set()
        for spec in SPANS:
            observe = getattr(self, spec.observe) if spec.observe else None
            for mod in modules:
                for attr in spec.functions:
                    fn = mod.__dict__.get(attr)
                    if callable(fn) and not isinstance(fn, type):
                        self._patch(mod, attr, self._wrap(spec.name, fn, observe))
                        self.present.add(spec.name)
                for cls_name, attr in spec.methods:
                    cls = mod.__dict__.get(cls_name)
                    if not isinstance(cls, type) or attr not in cls.__dict__:
                        continue
                    if (cls, attr) in patched_classes:
                        continue
                    patched_classes.add((cls, attr))
                    raw = cls.__dict__[attr]
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._wrap(spec.name, raw.__func__, observe))
                    else:
                        new = self._wrap(spec.name, raw, observe)
                    self._patch(cls, attr, new)
                    self.present.add(spec.name)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._stack.clear()

    def _patch(self, owner, attr, new):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def _wrap(self, name, fn, observe):
        stack = self._stack
        tracer = self  # reset() rebinds the counters, so read them through self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = _perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf_counter() - start
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return traced

    # -- observers: read results, never change them -----------------------
    def _observe_dc_matrix(self, result):
        self.dc_entries += int(getattr(result, "size", 0))

    def _observe_frame(self, result):
        try:
            log, sel = result
            kinds = [e.kind for e in log.events]
            applied = (log.applied_antenna, log.applied_frequency)
            chosen = (sel.antenna, sel.frequency)
        except (AttributeError, TypeError, ValueError):
            return  # a frame whose result lacks the fields is not observed
        self.frames_observed += 1
        self.messages_sent += kinds.count("MessageSent")
        self.messages_dropped += kinds.count("MessageDropped")
        self.fallbacks += applied != chosen

    # -- results ----------------------------------------------------------
    def snapshot(self, useful_entries: int) -> dict:
        """Per-layer values since the last reset; ``None`` marks absent ones.

        ``useful_entries`` is R*U*M_max*N of the sweep, the candidate
        entries a sweep needs at the least.
        """
        out = {}
        for span in SELF_SPANS:
            live = span in self.present
            if span in CALL_SPANS:
                out[f"{span}.calls"] = self.calls[span] if live else None
            out[f"{span}.self_s"] = self.self_s[span] if live else None
        dc_live = "signal_chain.dc_power_matrix" in self.present and self.dc_entries
        out["signal_chain.useful_pairs_ratio"] = (
            useful_entries / self.dc_entries if dc_live else None)
        # frame counts hold only if every traced frame's result was read
        frames = self.calls["protocol.run_frame"]
        frame_live = 0 < frames == self.frames_observed
        out["protocol.link_delivered_ratio"] = (
            (self.messages_sent - self.messages_dropped) / self.messages_sent
            if frame_live and self.messages_sent else None)
        out["protocol.feedback_fallback"] = self.fallbacks if frame_live else None
        return out
