"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Criterion 5 checks that the binding bound eps_b does not rise with the
verification threshold N_tol while Bob's error allowance
m = floor(E_tol * N_tol) stays fixed.  That is where more checked positions
make cheating harder: the exact best cheat against ``bob_verify``
(``test_binding_ground_truth.py``) falls as N_tol grows at fixed m and
rises where m steps up, since Bob then lets one more error through.  The
formula rises there too, by far more: each step of m adds the term
(2^m - 1) * C(N_tol, m) to its error-ball factor, so at p = 0.1 and
E_tol = 0.05 it rises at N_tol = 20, 40, 60, ... (hoeffding: 0.0467 at 19,
1.386 at 20) and exceeds 1 from N_tol = 20.  The verdict line prints the
E_tol = 0.05 values on N_tol = 10..320 with m at each point, so this stays
auditable.
"""

import itertools
import math
import time

import networkx as nx
import numpy as np
from scipy.optimize import brentq
from scipy.stats import chisquare

from pbc_bb84 import codebook as cbk
from pbc_bb84 import commitment_protocol as cp
from pbc_bb84 import math_core as mc
from pbc_bb84 import relay_routing as rr
from pbc_bb84.bb84_frames import classify_frame


def report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {number}] {verdict}: {detail}")
    return ok


def test_01_final_rate_boundary_and_root():
    start = time.perf_counter()
    grid = np.linspace(0.0, 0.2, 1000)
    values = [mc.final_key_rate(q) for q in grid]
    boundary_ok = values[0] == 1.0
    decreasing_ok = all(a > b for a, b in zip(values, values[1:]))
    root = brentq(mc.final_key_rate, 0.05, 0.08, xtol=1e-12)
    root_ok = abs(root - 0.068) <= 0.002
    elapsed = time.perf_counter() - start
    ok = boundary_ok and decreasing_ok and root_ok and elapsed < 1.0
    assert report(
        1, ok,
        f"r(0)={values[0]}, strictly decreasing={decreasing_ok}, "
        f"root={root:.6f} (target 0.068±0.002), {elapsed:.3f}s",
    )


def test_02_standalone_infeasible():
    start = time.perf_counter()
    grid = np.linspace(0.2 / 1000, 0.2, 1000)
    results = [mc.standalone_feasibility(q) for q in grid]
    required_ok = all(req == 1.0 for req, _ in results)
    infeasible_ok = not any(feasible for _, feasible in results)
    elapsed = time.perf_counter() - start
    ok = required_ok and infeasible_ok and elapsed < 1.0
    assert report(
        2, ok,
        f"all 1000 points on (0, 0.2] infeasible={infeasible_ok}, "
        f"required rate constant 1={required_ok}, {elapsed:.3f}s",
    )


def enumerate_commit_probability(n_quarter, x):
    """Exhaustive oracle: fraction of (basis pattern, outcome) draws that
    are candidate frames whose selected-basis substring is a codeword."""
    length = 4 * n_quarter
    codewords = set(
        itertools.islice(
            (s for s in itertools.product((0, 1), repeat=2 * n_quarter)
             if sum(s) == n_quarter), x,
        )
    )
    hits = 0
    for pattern in itertools.product((0, 1), repeat=length):
        if sum(pattern) != 2 * n_quarter:
            continue  # not a candidate frame
        # count outcome substrings (over the 2N rectilinear slots) in the book
        hits += sum(
            1 for sub in itertools.product((0, 1), repeat=2 * n_quarter)
            if sub in codewords
        )
    return hits / 2 ** (6 * n_quarter)


def test_03_commit_probability_exact_and_monte_carlo():
    start = time.perf_counter()
    exact_26 = mc.commit_probability(2, 6)
    exact_12 = mc.commit_probability(1, 2)
    oracle_26 = enumerate_commit_probability(2, 6)
    exact_ok = (
        math.isclose(exact_26, 420 / 4096, rel_tol=1e-12)
        and math.isclose(exact_26, oracle_26, rel_tol=1e-12)
        and math.isclose(exact_12, 0.1875, rel_tol=1e-12)
    )

    n_frames = 200_000
    cb = cbk.Codebook(2, 6)
    config = cp.SessionConfig(n_quarter=2, x=6, seed=101, frame_budget=n_frames)
    eligible = 0
    for frames in cp.frame_batches(config, n_frames):
        candidates = frames[classify_frame(frames, 2)]
        # each candidate's 2N rectilinear outcomes, in record order
        substrings = candidates["outcome"][candidates["alice_basis"] == 0].reshape(-1, 4)
        eligible += int(np.count_nonzero(cbk.is_codeword(cb, substrings)))
    p = 420 / 4096
    sigma = math.sqrt(p * (1 - p) / n_frames)
    deviation = abs(eligible / n_frames - p)
    mc_ok = deviation <= 6 * sigma
    elapsed = time.perf_counter() - start
    ok = exact_ok and mc_ok and elapsed < 30.0
    assert report(
        3, ok,
        f"p(2,6)={exact_26:.12g} (oracle {oracle_26:.12g}), "
        f"p(1,2)={exact_12}, MC {eligible}/{n_frames} "
        f"dev={deviation:.2e} (6σ={6 * sigma:.2e}), {elapsed:.1f}s",
    )


def test_04_redundant_rate_surface_shape():
    start = time.perf_counter()
    q_grid = np.linspace(0.0, 0.06, 61)
    p_grid = np.linspace(0.0002, 0.01, 50)
    surface = mc.redundant_key_rate(q_grid.tolist(), p_grid.tolist(), 100)[1]
    mono_q = bool((surface[:-1] >= surface[1:]).all())
    mono_p = bool((surface[:, :-1] >= surface[:, 1:]).all())
    limit = mc.redundant_key_rate([0.0], [1e-12], 100)[1][0, 0]
    limit_ok = abs(limit - 1.0) < 1e-9
    elapsed = time.perf_counter() - start
    ok = mono_q and mono_p and limit_ok and elapsed < 1.0
    assert report(
        4, ok,
        f"non-increasing in q_tol={mono_q}, in p={mono_p}, "
        f"r'(0, p→0)={limit:.12f}, {elapsed:.3f}s",
    )


def test_05_binding_bound_monotonicity():
    # More checked positions make cheating harder only while Bob's error
    # allowance m = floor(E_tol * N_tol) stays fixed: where m steps up he
    # lets one more error through, and the exact best cheat against
    # bob_verify rises (test_binding_ground_truth.py: N = 2, E_tol = 0.34,
    # 0.687 at N_tol = 2 and 0.848 at 3).  So eps_b must not rise with N_tol
    # at fixed m.  The original grid's points from N_tol = 20 on sit on
    # steps of m; its values and whether they are non-increasing are
    # printed, not asserted.
    start = time.perf_counter()
    zero_ok = all(
        mc.binding_bound(mc.BindingParams(0.0, 20, 0.05), v) == 0.0
        for v in mc.BINDING_VARIANTS
    )

    def eps_b(e_tol, variant, n_tols):
        return {
            n: mc.binding_bound(
                mc.BindingParams(0.1, n, e_tol, delta_grid=10_000), variant
            )
            for n in n_tols
        }

    def non_increasing_at_fixed_m(values, e_tol):
        runs = {}
        for n in sorted(values):
            runs.setdefault(mc._floor_tol(e_tol * n), []).append(values[n])
        return all(a >= b for run in runs.values() for a, b in zip(run, run[1:]))

    # At E_tol = 0 every N_tol has m = 0, where binding_bound's docstring
    # proves the property.  Every N_tol checked at 0.05 shares its m with
    # others: 2..99 covers m = 0..4.
    n_tols = {
        0.0: list(range(2, 81)) + [160, 320],
        0.05: list(range(2, 100)) + [160, 170, 179, 320, 330, 339],
    }
    grid = [10, 20, 40, 80, 160, 320]
    fixed_m_ok = {}
    on_grid, rises, vacuous = {}, {}, {}
    for e_tol, ns in n_tols.items():
        fixed_m_ok[e_tol] = True
        for v in mc.BINDING_VARIANTS:
            values = eps_b(e_tol, v, ns)
            fixed_m_ok[e_tol] &= non_increasing_at_fixed_m(values, e_tol)
            if e_tol == 0.05:
                on_grid[v] = [values[n] for n in grid]
                rises[v] = [n for n in range(3, 100) if values[n] > values[n - 1]]
                vacuous[v] = min((n for n in ns if values[n] > 1.0), default=None)
    hoeffding = on_grid[mc.VARIANT_HOEFFDING]
    grid_non_increasing = all(a >= b for a, b in zip(hoeffding, hoeffding[1:]))
    elapsed = time.perf_counter() - start
    ok = zero_ok and all(fixed_m_ok.values()) and elapsed < 10.0
    shown = {
        v: ", ".join(
            f"{n}:{value:.4g}(m={mc._floor_tol(0.05 * n)})"
            for n, value in zip(grid, on_grid[v])
        )
        for v in mc.BINDING_VARIANTS
    }
    assert report(
        5, ok,
        f"eps_b(p=0)=0 holds={zero_ok}; non-increasing at fixed "
        f"m=floor(E_tol*N_tol): E_tol=0 over N_tol 2..80,160,320="
        f"{fixed_m_ok[0.0]}, E_tol=0.05 over N_tol 2..99,160,170,179,320,330,"
        f"339={fixed_m_ok[0.05]}; E_tol=0.05 hoeffding "
        f"[{shown[mc.VARIANT_HOEFFDING]}], literal [{shown[mc.VARIANT_LITERAL]}]"
        f", hoeffding non-increasing over that grid={grid_non_increasing}; "
        f"rose over 2..99 at {rises[mc.VARIANT_HOEFFDING]} (hoeffding), "
        f"{rises[mc.VARIANT_LITERAL]} (literal); above 1 from N_tol="
        f"{vacuous[mc.VARIANT_HOEFFDING]} (hoeffding), "
        f"{vacuous[mc.VARIANT_LITERAL]} (literal), {elapsed:.1f}s",
    )


def test_06_protocol_completeness():
    start = time.perf_counter()
    accepts = rejects = 0
    for seed in range(100):
        honest = cp.run_session(
            cp.SessionConfig(seed=seed, frame_budget=400)
        )
        if honest["status"] == "accept":
            accepts += 1
        tampered = cp.run_session(
            cp.SessionConfig(seed=seed, frame_budget=400, tamper_p1_bit=0)
        )
        if tampered["status"] == "reject" and not tampered["commitments"][0][
            "relay_consistent"
        ]:
            rejects += 1
    elapsed = time.perf_counter() - start
    ok = accepts == 100 and rejects == 100 and elapsed < 30.0
    assert report(
        6, ok,
        f"honest accepts {accepts}/100, tampered relay-rejects {rejects}/100, "
        f"{elapsed:.1f}s",
    )


def test_07_otp_discipline():
    start = time.perf_counter()
    transcript = cp.run_session(
        cp.SessionConfig(seed=7, frame_budget=1000, commit_all=True)
    )
    intervals = {cp.CHANNEL_P0: [], cp.CHANNEL_P1: []}
    for entry in transcript["commitments"]:
        for msg in entry["messages"]:
            intervals[msg["channel"]].append(
                (msg["key_offset"], msg["key_offset"] + msg["length"])
            )
    no_reuse = True
    for spans in intervals.values():
        spans.sort()
        no_reuse &= all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
    consumed = sum(
        transcript["key_ledger"][ch]["consumed"]
        for ch in (cp.CHANNEL_P0, cp.CHANNEL_P1)
    )
    n_commits = len(transcript["commitments"])
    payload_len = cbk.payload_length(cbk.Codebook(2, 6), cbk.MODE_RAW)
    accounting_ok = consumed == 2 * payload_len * n_commits
    elapsed = time.perf_counter() - start
    ok = no_reuse and accounting_ok and n_commits > 0 and elapsed < 10.0
    assert report(
        7, ok,
        f"{n_commits} commitments, no key reuse={no_reuse}, "
        f"consumed {consumed} == 2×{payload_len}×{n_commits}={accounting_ok}, "
        f"{elapsed:.1f}s",
    )


def test_08_concealment_chi_square():
    start = time.perf_counter()
    worst_p = 1.0
    counts_seen = []
    for bit in (0, 1):
        transcript = cp.run_session(
            cp.SessionConfig(
                seed=8, frame_budget=220_000, commit_all=True, commit_bit=bit
            )
        )
        bits = []
        for entry in transcript["commitments"]:
            msg = entry["messages"][0]
            assert msg["channel"] == cp.CHANNEL_P0
            bits.extend(cbk.unpack_bits(bytes.fromhex(msg["ciphertext_hex"])))
        assert len(transcript["commitments"]) >= 10_000
        ones = sum(bits)
        counts_seen.append((bit, len(transcript["commitments"]), ones, len(bits)))
        _, p_value = chisquare([len(bits) - ones, ones])
        worst_p = min(worst_p, p_value)
    elapsed = time.perf_counter() - start
    ok = worst_p > 1e-3 and elapsed < 60.0
    detail = "; ".join(
        f"bit={b}: {n} frames, {ones}/{total} ones"
        for b, n, ones, total in counts_seen
    )
    assert report(
        8, ok, f"{detail}; min chi-square p={worst_p:.4f} (> 1e-3), {elapsed:.1f}s"
    )


def random_instance(seed):
    rng = np.random.default_rng(3000 + seed)
    n = int(rng.integers(2, 8))
    nodes = [chr(ord("A") + i) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.append((nodes[i], nodes[j], int(rng.integers(0, 200))))
    graph = rr.NetworkGraph(nodes, edges)
    return graph, rr.TrafficSpec(nodes[0], nodes[-1], 2, 5)


def oracle_paths(graph, src, dst):
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    for a, b, _ in graph.edges:
        g.add_edge(a, b)
    return sorted(tuple(p) for p in nx.all_simple_paths(g, src, dst))


def test_09_routing_oracles():
    start = time.perf_counter()
    unit_ok = (
        rr.serve_probability(50, 10, 10) == 0.5
        and rr.serve_probability(100, 10, 10) == 1.0
        and rr.serve_probability(0, 3, 7) == 0.0
    )
    checked = mismatches = 0
    for seed in range(100):
        graph, traffic = random_instance(seed)
        paths = rr.flood_discover(graph, traffic)
        expected = oracle_paths(graph, traffic.source, traffic.destination)
        if sorted(paths.path(i) for i in range(len(paths))) != expected:
            mismatches += 1
        if not len(paths):
            continue
        checked += 1
        best = max(math.prod(paths.probs(i)) for i in range(len(paths)))
        chosen, score = rr.datagram_select(paths)
        if math.prod(paths.probs(chosen)) != best or score != best:
            mismatches += 1
        if rr.vc_select(paths, 0.0)[0] != chosen:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = unit_ok and mismatches == 0 and elapsed < 30.0
    assert report(
        9, ok,
        f"unit cases={unit_ok}, 100 graphs ({checked} with routes), "
        f"oracle mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_10_binding_smoke():
    start = time.perf_counter()
    p = mc.commit_probability(2, 6)
    eps_b = max(
        mc.binding_bound(mc.BindingParams(p, 2, 0.25), v)
        for v in mc.BINDING_VARIANTS
    )
    config = cp.SessionConfig(n_quarter=2, x=6, n_tol=2, e_tol=0.25, seed=10)
    p0_hat, p1_hat = cp.simulate_cheating_alice(config, 10_000)
    total = p0_hat + p1_hat
    elapsed = time.perf_counter() - start
    ok = total <= 1 + eps_b and elapsed < 60.0
    assert report(
        10, ok,
        f"p0_hat={p0_hat:.4f}, p1_hat={p1_hat:.4f}, sum={total:.4f} "
        f"≤ 1+eps_b={1 + eps_b:.4f}, {elapsed:.1f}s",
    )
