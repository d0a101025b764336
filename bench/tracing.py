"""Span tracer for the traced benchmark run.

Spans are recorded from outside the program: each wrapper replaces the
attribute its caller looks up (``commitment_protocol.prepare_pulses``,
``cli.run_session``, ``KeyBuffer.extend`` on the class, ...) and records
name, start, end and parent span.  Self time is a span's duration minus the
time its child spans cover.  Hooks count work at the same boundaries.
Hot leaf functions whose only metric is a call count get a counting wrapper
without a span, installed only in separate counting iterations: its own cost
would otherwise land in the self time of the span that calls it.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []

    def span(self, owner, attr: str, name: str, hook=None) -> None:
        """Wrap ``owner.attr`` so each call records a span called ``name``;
        ``hook(counts, args, result)`` runs after the span closes."""
        fn = getattr(owner, attr)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counts, args, result)
            return result

        self._replace(owner, attr, fn, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so each call adds one to ``counts[name]``."""
        fn = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._replace(owner, attr, fn, counted)

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: total self seconds and call count; plus the counts."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for index, (name, start, end, _parent) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[index]
            calls[name] += 1
        return {
            "self_s": {name: ns / 1e9 for name, ns in self_ns.items()},
            "calls": dict(calls),
            "counts": dict(self.counts),
            "spans": len(self.spans),
        }


def _bump(key, amount):
    def hook(counts, _args, result):
        counts[key] += amount(result)
    return hook


def instrument(tracer: Tracer, counters: bool = False) -> None:
    """Install the layer wrappers of the ``pbc_bb84`` package.

    With ``counters`` only the counting wrappers are installed, and no span.
    """
    from pbc_bb84 import bb84_frames, cli, codebook, commitment_protocol, math_core, relay_routing

    if counters:
        tracer.count(math_core, "binary_entropy", "math_core.binary_entropy.calls")
        tracer.count(math_core, "log2_binom", "math_core.log2_binom.calls")
        tracer.count(relay_routing, "serve_probability", "relay_routing.serve_probability.calls")
        return

    cp = commitment_protocol
    span = tracer.span

    # cli: the subcommands are looked up when the parser is built in main()
    for cmd in ("cmd_simulate", "cmd_route", "cmd_binding", "cmd_rates"):
        span(cli, cmd, f"cli.{cmd}")
    span(cli, "run_session", "commitment_protocol.run_session")

    # bb84_frames, as seen from the session loop
    span(cp, "prepare_pulses", "bb84_frames.prepare_pulses", _bump("pulses", len))
    span(cp, "transmit_and_measure", "bb84_frames.transmit_and_measure", _bump("records", len))

    def frames_hook(counts, args, result):
        counts["frames_assembled"] += len(result)
        counts["records_framed"] += 4 * args[1] * len(result)

    span(cp, "assemble_frames", "bb84_frames.assemble_frames", frames_hook)
    span(bb84_frames, "classify_frame", "bb84_frames.classify_frame",
         _bump("candidates_assembled",
               lambda r: r is bb84_frames.FrameClass.COMMITMENT_CANDIDATE))
    span(cp, "sift_records", "bb84_frames.sift_records")

    # codebook: is_codeword is looked up in both modules
    span(cp, "is_codeword", "codebook.is_codeword")
    span(codebook, "is_codeword", "codebook.is_codeword")
    span(cp, "payload_bits", "codebook.payload_bits")
    span(cp, "decode_payload", "codebook.decode_payload")
    span(cp, "pack_bits", "codebook.pack_bits")

    # commitment_protocol
    span(cp.KeyBuffer, "extend", "commitment_protocol.KeyBuffer.extend")
    span(cp.KeyBuffer, "consume", "commitment_protocol.KeyBuffer.consume")
    span(cp, "try_commit", "commitment_protocol.try_commit")
    span(cp, "otp_decrypt", "commitment_protocol.otp_decrypt")
    span(cp, "bob_verify", "commitment_protocol.bob_verify")
    span(cp, "compute_verification_counts", "commitment_protocol.compute_verification_counts")

    # math_core, as seen from cli
    def delta_hook(counts, args, _result):
        counts["delta_points"] += args[0].delta_grid

    span(math_core, "binding_bound", "math_core.binding_bound", delta_hook)
    span(math_core, "redundant_key_rate", "math_core.redundant_key_rate")

    # relay_routing, as seen from cli
    span(relay_routing, "flood_discover", "relay_routing.flood_discover")
    span(relay_routing, "vc_select", "relay_routing.vc_select")
    span(relay_routing, "datagram_select", "relay_routing.datagram_select")
    span(relay_routing, "reserve_circuit", "relay_routing.reserve_circuit")
