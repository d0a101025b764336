"""pbc-bb84 benchmark: one run of one workload.

    python3 bench/run.py --workload session-ideal --seed 0 --seconds 30 --trace 0

Drives ``pbc_bb84.cli.main`` in-process as a closed loop (one client, one
process, one thread; each invocation starts after the previous one ends) in
a fresh worker process per run, checks every artifact, and prints one JSON
result as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` the per-layer metrics of a traced run.
The line before it is a JSON ``detail`` object: environment, per-subcommand
timings, exact counts, closed-form comparisons and any problems found.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")

import checks  # noqa: E402  (bench/ is sys.path[0])
import workloads  # noqa: E402

#: Fresh processes that only import the CLI and write the inputs; their
#: set-up times are the samples of ``setup_s``.  They run both before and
#: after the measuring process, because the host's speed changes within tens
#: of seconds.
SETUP_PROBES = 3
#: ``setup_s`` is reported at this reference-loop time: each probe's set-up
#: time is scaled by ``REFERENCE_NOMINAL_S / (reference time around it)``,
#: which cancels most of the host's speed changes, as for the iterations.
#: The value is the loop's time on a 2 GHz-class Xeon core in a quiet period.
REFERENCE_NOMINAL_S = 0.03
RUN_TIMEOUT_S = 170
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "iteration_ref_p50": "ref",
    "peak_rss_mb": "MB",
}

SPANS = (
    "bb84_frames.prepare_pulses", "bb84_frames.transmit_and_measure",
    "bb84_frames.assemble_frames", "bb84_frames.classify_frame", "bb84_frames.sift_records",
    "codebook.is_codeword", "codebook.payload_bits", "codebook.decode_payload",
    "codebook.pack_bits",
    "commitment_protocol.run_session", "commitment_protocol.KeyBuffer.extend",
    "commitment_protocol.KeyBuffer.consume", "commitment_protocol.try_commit",
    "commitment_protocol.otp_decrypt", "commitment_protocol.bob_verify",
    "commitment_protocol.compute_verification_counts",
    "math_core.binding_bound", "math_core.redundant_key_rate",
    "relay_routing.flood_discover", "relay_routing.vc_select",
    "relay_routing.datagram_select", "relay_routing.reserve_circuit",
    "cli.cmd_simulate", "cli.cmd_route", "cli.cmd_binding", "cli.cmd_rates",
)
CALLS = (
    "codebook.is_codeword", "commitment_protocol.KeyBuffer.extend",
    "commitment_protocol.KeyBuffer.consume", "commitment_protocol.try_commit",
    "math_core.binding_bound",
)
#: Call counts taken in the counting iterations of a traced run.  Like the
#: other traced counts they are internal: pulses, records and frames are
#: counted per whole batch, past the frame budget.  Only the artifact counts
#: are compared with ``golden.json``.
COUNTED = ("math_core.binary_entropy.calls", "math_core.log2_binom.calls",
           "relay_routing.serve_probability.calls")


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]] if values else [0.0, 0.0]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def _golden() -> dict:
    with open(os.path.join(BENCH, "golden.json")) as fh:
        return json.load(fh)


def _ratio(num, den):
    return num / den if den else 0.0


def environment() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a bare checkout has no history
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "pbc_bb84"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "jsonschema": metadata.version("jsonschema"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "threads": THREAD_ENV,
    }


def _worker(args, workdir, env, role, timeout) -> dict:
    os.makedirs(workdir)
    cmd = [sys.executable, WORKER, "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    with open(os.path.join(workdir, "worker.json")) as fh:
        return json.load(fh)


def measure(args, workdir) -> tuple[list, dict]:
    """Set-up probes and the memory probe (untraced runs only), and the run.

    The memory probe's invocations join the measured ones, so they are
    checked too.
    """
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def probes(side):
        return [_worker(args, os.path.join(workdir, f"setup-{side}{k}"), env, "setup", 30)
                for k in range(SETUP_PROBES)]

    setups, memory = [], None
    if not args.trace:
        setups = probes("before")
        memory = _worker(args, os.path.join(workdir, "memory"), env, "memory", 60)
    result = _worker(args, os.path.join(workdir, "measure"), env, "measure",
                     max(1.0, deadline - time.monotonic()))
    if memory:
        setups.extend(probes("after"))
        result["peak_rss_mb"] = memory["peak_rss_mb"]
        result["invocations"].extend(memory["invocations"])
    return setups, result


def judge(args, result) -> tuple[set, list, dict]:
    """Correctness of every invocation.

    Returns (indices of failed invocations, problems, exact artifact counts).
    An invocation fails if its exit code is unexpected, its output differs
    from the first output of the same call, or that output fails a check.
    """
    invocations = result["invocations"]
    failed: set = set()
    problems: list = []
    firsts: dict = {}
    for i, inv in enumerate(invocations):
        ref = firsts.setdefault(inv["name"], inv)
        if inv["code"] not in inv["ok_codes"]:
            failed.add(i)
            problems.append(f"{inv['name']} iteration {inv['iteration']}: exit code {inv['code']}")
        if inv["sha256"] is None or inv["sha256"] != ref["sha256"]:
            failed.add(i)
            problems.append(f"{inv['name']} iteration {inv['iteration']}: output differs "
                            f"from iteration {ref['iteration']}")

    bad_calls = {name: [] for name in firsts}
    counts: dict = {}
    missing = [name for name in firsts if name not in result["first"]]
    for name in missing:
        bad_calls[name].append("no output written")
    if not missing:
        codes = {name: inv["code"] for name, inv in firsts.items()}
        found, counts = checks.check_run(args.workload, args.seed, result["first"], codes, SRC)
        for name, issues in found.items():
            bad_calls[name].extend(issues)

    if args.seed == workloads.DEFAULT_SEED or args.workload == "analytics":
        golden = _golden()
        want = dict(golden["digests"].get(args.workload, {}))
        if args.seed != workloads.DEFAULT_SEED:
            want = {k: v for k, v in want.items() if k in golden["seed_independent"]}
        for name, digest in want.items():
            if name not in firsts:
                problems.append(f"golden.json has a digest for {name}, which is not run")
                failed.update(range(len(invocations)))
            elif firsts[name]["sha256"] != digest:
                bad_calls[name].append(f"sha256 {firsts[name]['sha256']} != golden {digest}")
    for name, issues in bad_calls.items():
        if issues:
            problems.extend(f"{name}: {issue}" for issue in issues)
            failed.update(i for i, inv in enumerate(invocations) if inv["name"] == name)
    return failed, problems, counts


def traced_counts(result, failed, problems) -> dict:
    """Exact counts of the traced run; iterations of one mode must agree.

    Span iterations give the span and call counts and the hook counts;
    counting iterations add the call counts of the hot leaf functions.
    """
    def exact(summary):
        return {"counts": summary["counts"], "calls": summary["calls"],
                "spans": summary["spans"]}

    merged = {"counts": {}, "calls": {}, "spans": 0}
    for mode in ("traced", "counted"):
        summaries = [s for s in result["traced"] if s["mode"] == mode]
        if not summaries:
            continue
        ref = exact(summaries[0])
        for summary in summaries[1:]:
            if exact(summary) != ref:
                problems.append(f"{mode} iteration {summary['iteration']}: counts differ "
                                f"from iteration {summaries[0]['iteration']}")
                failed.update(i for i, inv in enumerate(result["invocations"])
                              if inv["iteration"] == summary["iteration"])
        merged["counts"].update(ref["counts"])
        if mode == "traced":
            merged.update(calls=ref["calls"], spans=ref["spans"])
    return merged


def closed_forms(workload) -> dict:
    """Per-frame candidate and eligible probabilities from ``math_core``."""
    if workload == "analytics":
        return {"candidate": 0.0, "eligible_per_frame": 0.0, "codeword": 0.0}
    sys.path.insert(0, SRC)
    from pbc_bb84 import math_core

    config = workloads.session_config(workload, 0)
    n, x = config["n_quarter"], config["x"]
    candidate = math.comb(4 * n, 2 * n) / 2 ** (4 * n)
    eligible = math_core.commit_probability(n, x)
    return {"candidate": candidate, "eligible_per_frame": eligible,
            "codeword": eligible / candidate}


def _compare(hits: int, trials: int, expected: float) -> dict:
    """Observed rate beside its closed form, with the binomial z-score."""
    observed = _ratio(hits, trials)
    sd = math.sqrt(expected * (1.0 - expected) / trials) if trials else 0.0
    return {"observed": observed, "expected": expected,
            "z": _ratio(observed - expected, sd), "trials": trials}


def summarize(args, setups, result, failed, problems, counts) -> tuple[dict, dict]:
    invocations = result["invocations"]
    by_iteration: dict = {}
    for inv in invocations:
        by_iteration.setdefault((inv["mode"], inv["iteration"]), []).append(inv)

    def iteration_totals(mode, key):
        return [sum(inv[key] for inv in invs)
                for (m, _), invs in sorted(by_iteration.items()) if m == mode]

    for inv in invocations:
        inv["ref_units"] = inv["wall_s"] / inv["ref_s"] if inv["ref_s"] else 0.0
    walls = iteration_totals("untraced", "wall_s")
    refs = iteration_totals("untraced", "ref_units")
    per_call: dict = {}
    for inv in invocations:
        if inv["mode"] == "untraced":
            per_call.setdefault(inv["name"], []).append(inv)
    subcommands = {}
    for name, invs in per_call.items():
        for key, suffix, unit in (("wall_s", "s_p50", "s"), ("ref_units", "ref_p50", "ref")):
            values = [inv[key] for inv in invs]
            subcommands[f"{name}_{suffix}"] = {
                "value": _median(values), "unit": unit, "samples": len(values),
                "quartiles": _quartiles(values)}
    if "frames" in counts:
        sim = [inv["wall_s"] for inv in per_call["simulate"]]
        subcommands["frames_per_s"] = {
            "value": counts["frames"] * len(sim) / sum(sim), "unit": "1/s",
            "samples": len(sim)}

    output_bytes = sum(inv["bytes"] for inv in invocations if inv["iteration"] == 0)
    counts = dict(counts, output_bytes=output_bytes)
    trace = traced_counts(result, failed, problems)
    attempted = len(invocations)
    if args.seed == workloads.DEFAULT_SEED:
        for key, value in _golden()["counts"].get(args.workload, {}).items():
            if key in counts and counts[key] != value:
                problems.append(f"count {key}={counts[key]} != golden {value}")
                failed.update(range(attempted))
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "config_seed": workloads.derived_seed(args.workload, args.seed),
        "environment": dict(environment(), **result["versions"]),
        "error_rate": {"value": len(failed) / attempted, "unit": "ratio",
                       "samples": attempted},
        "subcommands": subcommands,
        "counts": counts,
        "trace_counts": trace["counts"],
        "digests": {inv["name"]: inv["sha256"] for inv in invocations if inv["iteration"] == 0},
    }
    if "frames" in counts:
        closed = closed_forms(args.workload)
        detail["closed_form"] = {
            name: _compare(counts[num], counts[den], closed[key])
            for name, num, den, key in (
                ("candidate_ratio", "candidates", "frames", "candidate"),
                ("codeword_ratio", "eligible", "candidates", "codeword"),
                ("eligible_per_frame", "eligible", "frames", "eligible_per_frame"))
        }
    if not args.trace:
        samples = {
            "setup_s": [p["setup_s"] * REFERENCE_NOMINAL_S / p["reference_s"] for p in setups],
            "iteration_ref_p50": refs, "peak_rss_mb": [result["peak_rss_mb"]],
        }
        metrics = {name: {"value": _median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        samples["setup_raw_s"] = [p["setup_s"] for p in setups]
        samples["iteration_s_p50"] = walls
        samples["iteration_cpu_s_p50"] = iteration_totals("untraced", "cpu_s")
        samples["reference_s_p50"] = [inv["ref_s"] for inv in invocations if inv["ref_s"]]
        detail["end_to_end"] = {
            name: {"value": _median(values), "samples": len(values),
                   "quartiles": _quartiles(values)}
            for name, values in samples.items()
        }
        return metrics, detail
    metrics = per_layer(args.workload, result, trace, counts, walls, refs)
    detail["per_layer_samples"] = sum(s["mode"] == "traced" for s in result["traced"])
    return metrics, detail


def per_layer(workload, result, trace, counts, untraced_walls, untraced_refs) -> dict:
    summaries = [s for s in result["traced"] if s["mode"] == "traced"]
    metrics: dict = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for span in SPANS:
        put(f"{span}.self_s", _median([s["self_s"].get(span, 0.0) for s in summaries]), "s")
    calls, tc = trace["calls"], trace["counts"]
    for span in CALLS:
        put(f"{span}.calls", calls.get(span, 0), "count")
    for name in COUNTED:
        put(name, tc.get(name, 0), "count")

    closed = closed_forms(workload)
    pulses, records = tc.get("pulses", 0), tc.get("records", 0)
    frames, candidates = tc.get("frames_assembled", 0), tc.get("candidates_assembled", 0)
    put("bb84_frames.pulses", pulses, "count")
    put("bb84_frames.records", records, "count")
    put("bb84_frames.frames", frames, "count")
    put("bb84_frames.candidates", candidates, "count")
    put("bb84_frames.detection_yield", _ratio(records, pulses), "ratio")
    put("bb84_frames.record_use_ratio", _ratio(tc.get("records_framed", 0), records), "ratio")
    put("bb84_frames.candidate_ratio", _ratio(candidates, frames), "ratio")
    put("bb84_frames.candidate_ratio_expected", closed["candidate"], "ratio")
    put("codebook.eligible", counts.get("eligible", 0), "count")
    put("codebook.codeword_ratio",
        _ratio(counts.get("eligible", 0), counts.get("candidates", 0)), "ratio")
    put("codebook.codeword_ratio_expected", closed["codeword"], "ratio")
    put("codebook.eligible_per_frame",
        _ratio(counts.get("eligible", 0), counts.get("frames", 0)), "ratio")
    put("codebook.eligible_per_frame_expected", closed["eligible_per_frame"], "ratio")
    put("commitment_protocol.commits", counts.get("commits", 0), "count")
    put("commitment_protocol.key_bits_generated", counts.get("key_bits_generated", 0), "count")
    put("commitment_protocol.key_bits_consumed", counts.get("key_bits_consumed", 0), "count")
    put("commitment_protocol.commit_ratio",
        _ratio(counts.get("commits", 0), counts.get("eligible", 0)), "ratio")
    put("commitment_protocol.accept_ratio",
        _ratio(counts.get("accepted", 0), counts.get("commits", 0)), "ratio")
    put("math_core.delta_points", tc.get("delta_points", 0), "count")
    put("relay_routing.paths", counts.get("paths", 0), "count")
    put("cli.output_bytes", counts["output_bytes"], "count")

    def traced(key):
        return [sum(inv[key] for inv in result["invocations"]
                    if inv["iteration"] == s["iteration"]) for s in summaries]

    put("trace.overhead_s", _median(traced("wall_s")) - _median(untraced_walls), "s")
    put("trace.overhead_ratio",
        _ratio(_median(traced("ref_units")), _median(untraced_refs)) - 1.0, "ratio")
    put("trace.spans", trace["spans"], "count")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "pbc_bb84", "cli.py")):
        print(f"run.py: no pbc_bb84 sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups, result = measure(args, workdir)
        failed, problems, counts = judge(args, result)
        metrics, detail = summarize(args, setups, result, failed, problems, counts)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run is still using it
            pass
    detail["problems"] = problems[:50]
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(result["invocations"]),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
