"""One process of a benchmark run; started by ``run.py``.

Roles:
- ``setup``: import ``pbc_bb84.cli`` and write the inputs, between two runs
  of the reference loop; one sample of ``setup_s``.
- ``memory``: also run one iteration; its ``ru_maxrss`` is ``peak_rss_mb``.
- ``measure``: run iterations until ``--seconds`` have passed, each
  invocation bracketed by the reference loop; a traced run interleaves
  span iterations and call-counting iterations with untraced ones.

Each role writes ``worker.json`` into ``--workdir``.  The timed region of an
invocation is ``cli.main(argv)`` alone: hashing the output, keeping the
first copy and tracing bookkeeping happen outside it.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (bench/ is sys.path[0])

#: Iteration modes of a traced run, by iteration index modulo 4.
TRACE_CYCLE = ("counted", "untraced", "traced", "untraced")


class Reference:
    """A fixed pure-Python loop, timed right before and after every invocation.

    On a shared host the CPU's speed can change by tens of percent within
    seconds, mostly through contention for caches and memory.  An
    invocation's time divided by the reference time around it cancels most
    of that change.  The loop mixes integer, list and dict work, small
    object allocation, random reads over a 32 MB array and random reads
    through a tuple of 2M int objects (about 70 MB); the last part follows
    cache contention most closely.  It takes 30-50 ms on a 2 GHz-class Xeon
    core.  The memory probe builds none, so its data do not count in
    ``peak_rss_mb``; a tuple of ints is not tracked by the garbage
    collector, so it does not slow the program's collections either.
    """

    LOOPS = 30_000
    OBJECTS = 7_500
    WORDS, WORD_READS = 4_000_000, 25_000
    INTS, INT_READS = 2_000_000, 50_000

    def __init__(self):
        rng = random.Random(1)
        self.words = array.array("q", range(self.WORDS))
        self.word_order = array.array("q", rng.sample(range(self.WORDS), self.WORD_READS))
        self.ints = tuple(range(self.INTS))
        self.int_order = tuple(rng.sample(range(self.INTS), self.INT_READS))

    def __call__(self) -> float:
        start = time.perf_counter()
        table, items, total = {}, [], 0
        for i in range(self.LOOPS):
            total += i * i
            items.append(i)
            table[i & 255] = total
        objects = [(i, str(i & 7), [i]) for i in range(self.OBJECTS)]
        total += sum(o[0] for o in objects if o[0] & 1)
        words, ints = self.words, self.ints
        for i in self.word_order:
            total += words[i]
        for i in self.int_order:
            total += ints[i]
        return time.perf_counter() - start


def _digest(path: str) -> tuple[str, int]:
    digest, size = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def _invoke(cli, call) -> tuple:
    """Run one CLI invocation; return (exit code, wall s, cpu s)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(list(call.argv))
    except SystemExit as exc:  # argparse usage errors exit through here
        code = exc.code
    except Exception:  # any traceback is a failed operation, not a crashed run
        traceback.print_exc()
        code = "exception"
    return code, time.perf_counter() - wall0, time.process_time() - cpu0


def run(args) -> dict:
    # the memory probe builds no reference: its data would count in ru_maxrss
    reference = Reference() if args.role in ("setup", "measure") else None
    ref_before = None
    if reference:
        reference()  # the first pass runs cold
        ref_before = reference()
    start = time.perf_counter()
    from pbc_bb84 import cli
    imported = time.perf_counter()
    calls = workloads.write_inputs(args.workload, args.seed, args.workdir)
    ready = time.perf_counter()
    result = {"setup_s": ready - start, "import_s": imported - start,
              "inputs_s": ready - imported}
    if args.role == "setup":
        result["reference_s"] = (ref_before + reference()) / 2
        return result
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"pbc_bb84 imported from {cli.__file__}, not {SRC}")

    import numpy
    import scipy
    import tracing

    first_dir = os.path.join(args.workdir, "first")
    os.makedirs(first_dir)
    first: dict = {}
    invocations: list = []
    traced: list = []
    last_reference = ref_before

    def iteration(index: int, mode: str) -> None:
        nonlocal last_reference
        tracer = None
        if mode in ("traced", "counted"):
            tracer = tracing.Tracer()
            tracing.instrument(tracer, counters=mode == "counted")
        try:
            for call in calls:
                if os.path.exists(call.output):
                    os.remove(call.output)
                gc.collect()
                code, wall, cpu = _invoke(cli, call)
                ref_s = None
                if reference:
                    before, last_reference = last_reference, reference()
                    ref_s = (before + last_reference) / 2
                digest, size = _digest(call.output) if os.path.exists(call.output) else (None, 0)
                if call.name not in first and digest is not None:
                    kept = os.path.join(first_dir, os.path.basename(call.output))
                    shutil.copyfile(call.output, kept)
                    first[call.name] = kept
                invocations.append({
                    "iteration": index, "mode": mode, "name": call.name, "code": code,
                    "ok_codes": list(call.ok_codes), "wall_s": wall, "cpu_s": cpu,
                    "ref_s": ref_s, "sha256": digest, "bytes": size,
                })
        finally:
            if tracer is not None:
                tracer.remove()
        if tracer is not None:
            traced.append(dict(tracer.summary(), iteration=index, mode=mode))

    if args.role == "memory":
        iteration(-1, "memory")
    else:
        # the warm-up iteration lets lazy set-up finish; it is checked, not timed
        deadline = time.perf_counter() + args.seconds
        iteration(0, "warmup")
        index = 1
        while True:
            # the traced run cycles untraced, traced, untraced, counted: the
            # difference between untraced and traced iterations is the tracing
            # overhead, and the counting wrappers stay out of the traced ones
            mode = TRACE_CYCLE[index % len(TRACE_CYCLE)] if args.trace else "untraced"
            iteration(index, mode)
            index += 1
            if time.perf_counter() >= deadline and (
                    not args.trace or {s["mode"] for s in traced} == {"traced", "counted"}):
                break

    result.update(
        invocations=invocations,
        traced=traced,
        first=first,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--role", required=True, choices=("setup", "memory", "measure"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    result = run(args)
    with open(os.path.join(args.workdir, "worker.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
