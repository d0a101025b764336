"""Deterministic simulator and numerical toolkit for a probabilistic
bit-commitment scheme running inside the BB84 protocol, plus the
trusted-relay routing application built on top of it.

Modules
-------
math_core
    Closed-form key-rate, commit-probability and binding-bound formulas,
    evaluated in log domain where the raw binomials would overflow.
codebook
    Balanced-sequence codebook with combinadic rank/unrank.
bb84_frames
    Bit-level BB84 physical layer: pulses, loss+flip channel, sifting,
    frame assembly.
commitment_protocol
    Commit / unveil / verify state machines between Alice, Bob and the
    relays P0/P1, with a one-time-pad key ledger of two counters.
relay_routing
    Serve probabilities, flooding path discovery, datagram and
    virtual-circuit selection, circuit reservation with per-relay string
    commitment handles (no session is run).
cli
    ``pbc-bb84`` command line front end (rates, binding, simulate, route).
"""

__version__ = "0.1.0"
