"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> PASS`` line on success (visible with
``pytest -s``); a failing assertion marks the criterion FAIL via pytest.
All checks are exact-value or property checks at desk scale.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest

from conftest import all_paths_up_to, cached_context, path_sort_key, path_weight, shortest_sigma_paths, vertex_by_word
from qbruhat.affine_oracle import AffineOracle
from qbruhat.cartan import pair
from qbruhat.degree import degree, degree_table, endpoint_delta, lift
from qbruhat.qls import enumerate_hat, enumerate_tilde, sigma_candidates
from test_qbg import A2_EDGES, edge_set
from test_qls import example_paths

SHAPES = [("A2", (2, 1)), ("A2", (1, 1)), ("C2", (1, 1)), ("A3", (0, 1, 0))]


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_golden_degrees(a2_21):
    start = time.monotonic()
    g = a2_21.graph
    eta1, eta2, eta3 = example_paths(a2_21)
    values = (degree(eta1, g), degree(eta2, g), degree(eta3, g))
    elapsed = time.monotonic() - start
    assert values == (-1, -1, -2)
    assert elapsed < 1.0
    report(1, f"golden degrees {values} in {elapsed:.3f}s")


def test_criterion_2_graph_edges(a2_21):
    g = a2_21.graph
    got = edge_set(g)
    assert got == A2_EDGES
    bruhat = sum(1 for *_, kind in got if kind == "bruhat")
    quantum = sum(1 for *_, kind in got if kind == "quantum")
    assert (bruhat, quantum) == (8, 7)
    assert ("s1 s2 s1", "e", (1, 1), "quantum") in got
    report(2, "8 Bruhat + 7 quantum edges with the expected labels")


def test_criterion_3_sigma_admissible_edges(a2_21):
    g, lam = a2_21.graph, a2_21.shape.classical
    v = lambda w: vertex_by_word(a2_21, w)
    theta_edges = [("s1", "s2 s1"), ("s1 s2 s1", "e"), ("s2", "s1 s2")]
    alpha1_edges = [("e", "s1"), ("s1 s2", "s1 s2 s1"), ("s2 s1", "s2")]
    checked = 0
    for src, dst in theta_edges:
        for sigma in (F(1, 3), F(2, 3)):
            res = g.sigma_path(v(dst), v(src), sigma)
            assert res.shortest and res.path.length == 1
            assert g.rs.positive_roots[res.path.labels[0]].coords == (1, 1)
            assert (sigma * pair(lam, g.rs.positive_coroots[g.rs.highest_root])).denominator == 1
            checked += 1
    for src, dst in alpha1_edges:
        res = g.sigma_path(v(dst), v(src), F(1, 2))
        assert res.shortest and res.path.length == 1
        assert g.rs.positive_roots[res.path.labels[0]].coords == (1, 0)
        checked += 1
    report(3, f"{checked} single-edge admissibility facts hold exactly")


def test_criterion_4_membership(a2_21):
    hat = enumerate_hat(a2_21.graph)
    for eta in example_paths(a2_21):
        assert eta in hat
    report(4, "the three worked example paths are enumerated")


def test_criterion_5_hat_equals_tilde():
    for name, mults in SHAPES:
        start = time.monotonic()
        ctx = cached_context(name, mults)
        hat = enumerate_hat(ctx.graph)
        tilde = enumerate_tilde(ctx.graph)
        elapsed = time.monotonic() - start
        assert hat == tilde, (name, mults)
        assert elapsed < 30.0
    report(5, f"strong = weak enumeration for {len(SHAPES)} shapes")


def test_criterion_6_oracle_agreement():
    total = 0
    for name, mults in SHAPES:
        ctx = cached_context(name, mults)
        g = ctx.graph
        oracle = AffineOracle(g)
        for eta in enumerate_hat(g):
            lifted = lift(eta, g)
            # every lift fits window 10, so `verify --window 10` reports none inconclusive
            assert max(abs(mu.delta) for mu in lifted.weights) <= 10, (name, mults, eta)
            assert oracle.verify_ls_path(lifted), (name, mults, eta)
            assert endpoint_delta(lifted) == -degree(eta, g)
            total += 1
    report(6, f"{total} lifts certified at window 10, zero failures or inconclusives")


def test_criterion_7_cover_edge_correspondence():
    covers = 0
    for name, mults in SHAPES:
        ctx = cached_context(name, mults)
        rep = AffineOracle(ctx.graph).covers_to_edges()
        assert rep.mismatches == (), (name, mults, rep.mismatches[:3])
        covers += rep.covers_checked
    report(7, f"{covers} covers matched against graph edges, zero mismatches")


def test_criterion_8_well_definedness():
    rng = random.Random(20260810)
    sampled = 0
    for name, mults in SHAPES:
        ctx = cached_context(name, mults)
        g, lam = ctx.graph, ctx.shape.classical
        J = set(g.J)
        candidates = sigma_candidates(g)
        valid = [
            (x, y, sigma)
            for sigma in candidates
            for x in range(g.num_vertices)
            for y in range(g.num_vertices)
            if x != y and g.sigma_path(x, y, sigma).shortest
        ]
        if not valid:
            continue  # no internal time is admissible for this shape
        for _ in range(100):
            x, y, sigma = rng.choice(valid)
            sampled += 1
            best = shortest_sigma_paths(g, x, y, sigma)
            assert best and best[0].length == g.distances_from(y)[x]
            energies = {pair(lam, path_weight(g, p)) for p in best}
            assert len(energies) == 1
            ref = path_weight(g, best[0]).coords
            for p in best:
                diff = tuple(a - b for a, b in zip(path_weight(g, p).coords, ref))
                assert {i + 1 for i, c in enumerate(diff) if c} <= J
            floor = energies.pop()
            for p in all_paths_up_to(g, x, y, sigma=sigma):
                assert pair(lam, path_weight(g, p)) >= floor
    assert sampled > 0
    report(8, f"{sampled} sampled triples: canonical energies, minimality holds")


def test_criterion_9_tie_break_invariance():
    # the degree may take any shortest admissible path per segment: every one
    # of them carries the energy the degree table reports
    checked = 0
    for name, mults in SHAPES:
        ctx = cached_context(name, mults)
        shape, g = ctx.shape, ctx.graph
        lam = shape.classical
        paths = sorted(enumerate_hat(g), key=path_sort_key)
        for eta, row in zip(paths, degree_table(shape, g, paths)):
            for (x_cur, x_next, sigma), energy in zip(eta.turning_points(), row["energies"]):
                best = shortest_sigma_paths(g, x_cur, x_next, sigma)
                assert best, (name, mults, eta)
                assert {pair(lam, path_weight(g, p)) for p in best} == {energy}, (name, mults, eta)
                checked += len(best)
    assert checked > 0
    report(9, f"{checked} shortest admissible segment paths all carry the tabulated energy")


def test_criterion_10_cardinality_regression(a2_21):
    # recorded on the first run on which criteria 6-8 passed; the value also
    # matches the product of the three one-column factor sizes (3 * 3 * 3)
    hat = enumerate_hat(a2_21.graph)
    assert len(hat) == 27
    report(10, "regular rank-2 shape enumerates exactly 27 paths")
