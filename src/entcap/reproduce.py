"""Desk-scale reproduction harness: every headline number as a named claim.

Each claim recomputes a published or independently derived value from
scratch and compares exactly; its coding searches run at the default
budget.  The registry backs both the ``entcap reproduce`` subcommand and
the acceptance test suite.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .codingsearch import (
    SearchConfig,
    exhaustive_achievable,
    is_valid,
    paper_protocol_n2,
    paper_protocol_n4,
)
from .fixtures import diamond_network, fixture, r1_witness_n2
from .netmodel import (
    cut_value,
    is_acyclic,
    min_cut,
    orient,
    random_network,
    scale,
    tensor_power,
)
from .tnrank import contract, estimate_r1, rank_mod_p
from .transforms import sandwich_check


@dataclass(frozen=True)
class ClaimResult:
    name: str
    expected: str
    computed: str
    passed: bool
    seconds: float


def _claim_mincut_exactness(seed):
    mc_fig2 = min_cut(fixture("fig2_counterexample")).value
    family = [min_cut(diamond_network(2, 3, 3, 2, d5)).value for d5 in range(2, 11)]
    return (
        "MC(fig2)=15, MC(N_d5)=6 for d5 in 2..10",
        f"MC(fig2)={mc_fig2}, MC(N_d5)={sorted(set(family))}",
        mc_fig2 == 15 and set(family) == {6},
    )


def _claim_r1_gap(seed):
    est = estimate_r1(fixture("fig2_counterexample"), trials=5, seed=seed)
    return (
        "R1=14 MC=15",
        f"R1={est.r1_lower} MC={est.mc_upper}",
        est.r1_lower == 14 and est.mc_upper == 15,
    )


def _claim_r1_saturation(seed):
    got = {
        d5: estimate_r1(diamond_network(2, 3, 3, 2, d5), trials=3, seed=seed).r1_lower
        for d5 in (2, 3, 4)
    }
    net, witness = r1_witness_n2()
    stored = rank_mod_p(contract(net, witness))
    return (
        "R1(N_d5)=6 for d5 in {2,3,4}; stored witness rank 6",
        f"R1={got}; witness rank {stored}",
        set(got.values()) == {6} and stored == 6,
    )


def _claim_coding_achievability(seed):
    n4s, n2u = fixture("n4_split_2x2"), fixture("n2_up")
    r6 = exhaustive_achievable(n4s, SearchConfig(alphabet_size=6))
    r5 = exhaustive_achievable(n2u, SearchConfig(alphabet_size=5))
    fixtures_ok = is_valid(n4s, paper_protocol_n4()) and is_valid(n2u, paper_protocol_n2())
    witnesses_ok = (
        r6.status == "witness"
        and is_valid(n4s, r6.witness)
        and r5.status == "witness"
        and is_valid(n2u, r5.witness)
    )
    return (
        "l=6 witness on split N4, l=5 witness on up-oriented N2, transcribed protocols valid",
        f"split l=6: {r6.status}, up l=5: {r5.status}, transcribed valid: {fixtures_ok}",
        witnesses_ok and fixtures_ok,
    )


def _claim_coding_impossibility(seed):
    n2u = fixture("n2_up")
    r = exhaustive_achievable(n2u, SearchConfig(alphabet_size=6))
    statuses = {("n2_up",): r.status}
    n4 = diamond_network(2, 3, 3, 2, 4)
    eids = [e.id for e in n4.edges]
    n_orients = 0
    for dirs in itertools.product(("uv", "vu"), repeat=len(eids)):
        oriented = orient(n4, dict(zip(eids, dirs)))
        if not is_acyclic(oriented):
            continue
        n_orients += 1
        res = exhaustive_achievable(oriented, SearchConfig(alphabet_size=6))
        statuses[dirs] = res.status
    all_impossible = set(statuses.values()) == {"impossible"}
    return (
        "l=6 impossible on up-oriented N2 and every acyclic orientation of N4 (d5=4)",
        f"{n_orients} acyclic orientations + n2_up, statuses: {sorted(set(statuses.values()))}",
        all_impossible and n_orients > 0,
    )


def _claim_conjecture_scaled(seed):
    got = {}
    for k, expected in ((2, 24), (3, 54)):
        net = scale(diamond_network(2, 3, 3, 2, 2), k)
        est = estimate_r1(net, trials=3, seed=seed)
        got[k] = (est.r1_lower, est.mc_upper, expected)
    ok = all(r1 == mc == exp for r1, mc, exp in got.values())
    return (
        "R1(N scaled by k) = MC = {2: 24, 3: 54}",
        f"{ {k: v[:2] for k, v in got.items()} }",
        ok,
    )


def _claim_sandwich(seed):
    base = diamond_network(2, 3, 3, 2, 2)
    reports = {
        n: sandwich_check(
            base, n, lambda net: estimate_r1(net, trials=3, seed=seed).r1_lower
        )
        for n in (1, 2)
    }
    ok = all(r.ok for r in reports.values())
    return (
        "MC(N_l) <= R1 <= MC(N_u) and the 2^(+-c) bounds for n in {1,2}",
        "; ".join(
            f"n={n}: {r.mc_lower} <= {r.r1_estimate} <= {r.mc_upper} (MC^n={r.mc_power})"
            for n, r in reports.items()
        ),
        ok,
    )


def _claim_property_suite(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    violations = []
    for i in range(200):
        net = random_network(rng)
        cut = min_cut(net)
        if cut_value(net, cut.s_side) != cut.value:
            violations.append(f"net {i}: witness does not recompute")
        if min_cut(tensor_power(net, 2)).value != cut.value**2:
            violations.append(f"net {i}: MC not multiplicative")
        est = estimate_r1(net, trials=1, seed=seed + i)
        if est.r1_lower > cut.value:
            violations.append(f"net {i}: r1 exceeds MC")
        oriented = orient(
            net, {e.id: "uv" for e in net.edges if not e.is_directed}
        )
        if is_acyclic(oriented):
            res = exhaustive_achievable(oriented, SearchConfig(alphabet_size=2))
            if res.status == "witness" and not is_valid(oriented, res.witness):
                violations.append(f"net {i}: witness not valid")
    computed = (
        f"{len(violations)} violations: {violations[:3]}" if violations else "0 violations"
    )
    return ("0 violations on 200 random networks", computed, not violations)


CLAIMS = {
    "mincut-exactness": _claim_mincut_exactness,
    "r1-gap": _claim_r1_gap,
    "r1-saturation": _claim_r1_saturation,
    "coding-achievability": _claim_coding_achievability,
    "coding-impossibility": _claim_coding_impossibility,
    "conjecture-scaled": _claim_conjecture_scaled,
    "sandwich": _claim_sandwich,
    "property-suite": _claim_property_suite,
}


def run_claim(name: str, seed: int = 0) -> ClaimResult:
    start = time.perf_counter()
    expected, computed, passed = CLAIMS[name](seed)
    return ClaimResult(
        name=name,
        expected=expected,
        computed=computed,
        passed=passed,
        seconds=time.perf_counter() - start,
    )


def run_all(seed: int = 0) -> list[ClaimResult]:
    return [run_claim(name, seed=seed) for name in CLAIMS]
