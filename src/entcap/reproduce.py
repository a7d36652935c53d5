"""Desk-scale reproduction harness: every headline number as a named claim.

Each claim recomputes a published or independently derived value from
scratch and returns one line that states it; its coding searches run at
the default budget.  ``CLAIMS`` registers the line each claim must print,
and a claim passes exactly when its computed line equals that line.  The
registry backs both the ``entcap reproduce`` subcommand and the
acceptance test suite.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .codingsearch import (
    ProtocolError,
    SearchConfig,
    counted_c1,
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
from .tnrank import contract, diamond_r1, estimate_r1, rank_mod_p
from .transforms import sandwich_check


@dataclass(frozen=True)
class ClaimResult:
    name: str
    expected: str
    computed: str
    seconds: float

    @property
    def passed(self) -> bool:
        return self.computed == self.expected


def _status(net, l) -> str:
    """Whether alphabet size ``l`` is achievable: ``witness`` or
    ``impossible``, or ``invalid witness`` when the protocol found fails
    its re-check (:class:`ProtocolError`).  A network that a count covers
    is answered from :func:`counted_c1`, whose witness is re-checked in
    full at every ``l``: ``impossible`` above its c1, else ``witness``.
    Any other network is searched, and :func:`exhaustive_achievable`
    re-checks the witness it returns."""
    try:
        counted = counted_c1(net)
        if counted is not None:
            return "witness" if l <= counted[0] else "impossible"
        return exhaustive_achievable(net, SearchConfig(alphabet_size=l)).status
    except ProtocolError:
        return "invalid witness"


def _claim_mincut_exactness(seed):
    """MC(fig2) = 15, and MC(N_d5) = 6 for d5 in 2..10."""
    mc_fig2 = min_cut(fixture("fig2_counterexample")).value
    family = {min_cut(diamond_network(2, 3, 3, 2, d5)).value for d5 in range(2, 11)}
    return f"MC(fig2)={mc_fig2}, MC(N_d5)={sorted(family)}"


def _claim_r1_gap(seed):
    """The strict gap R1 = 14 < MC = 15 on the counterexample; an estimate
    short of the exact :func:`diamond_r1` prints both values."""
    net = fixture("fig2_counterexample")
    est, exact = estimate_r1(net, trials=5, seed=seed), diamond_r1(net)
    r1 = est.r1_lower if est.r1_lower == exact else f"{est.r1_lower} (exact {exact})"
    return f"R1={r1} MC={est.mc_upper}"


def _claim_r1_saturation(seed):
    """R1(N_d5) = 6 for d5 in {2, 3, 4}, and the stored witness has rank 6."""
    got = {
        d5: estimate_r1(diamond_network(2, 3, 3, 2, d5), trials=3, seed=seed).r1_lower
        for d5 in (2, 3, 4)
    }
    net, witness = r1_witness_n2()
    return f"R1={got}; witness rank {rank_mod_p(contract(net, witness))}"


def _claim_coding_achievability(seed):
    """A valid l = 6 witness on split N4 and l = 5 on up-oriented N2, and
    both transcribed protocols are valid."""
    n4s, n2u = fixture("n4_split_2x2"), fixture("n2_up")
    transcribed = is_valid(n4s, paper_protocol_n4()) and is_valid(n2u, paper_protocol_n2())
    return (
        f"split l=6: {_status(n4s, 6)}, up l=5: {_status(n2u, 5)}, "
        f"transcribed valid: {transcribed}"
    )


def _claim_coding_impossibility(seed):
    """l = 6 is impossible on up-oriented N2 and on each of the 18 acyclic
    orientations of N4 (d5 = 4).  The two orientations that are directed
    diamonds are counted (:func:`counted_c1`, witnesses re-checked in
    full); the others, with a terminal edge against the flow, and the
    split N2 are searched."""
    statuses = {_status(fixture("n2_up"), 6)}
    n4 = diamond_network(2, 3, 3, 2, 4)
    eids = [e.id for e in n4.edges]
    n_orients = 0
    for dirs in itertools.product(("uv", "vu"), repeat=len(eids)):
        oriented = orient(n4, dict(zip(eids, dirs)))
        if is_acyclic(oriented):
            n_orients += 1
            statuses.add(_status(oriented, 6))
    return f"{n_orients} acyclic orientations + n2_up, statuses: {sorted(statuses)}"


def _claim_conjecture_scaled(seed):
    """R1 = MC on the diamond scaled by k: 24 for k = 2 and 54 for k = 3."""
    got = {}
    for k in (2, 3):
        est = estimate_r1(scale(diamond_network(2, 3, 3, 2, 2), k), trials=3, seed=seed)
        got[k] = (est.r1_lower, est.mc_upper)
    return str(got)


def _claim_sandwich(seed):
    """MC(N_l) <= R1 <= MC(N_u) for n in {1, 2}: 4 <= 6 <= 8 and
    32 <= 36 <= 64.  An n whose report fails the 2^(+-c) bounds is marked
    ``VIOLATED``."""
    base = diamond_network(2, 3, 3, 2, 2)
    entries = []
    for n in (1, 2):
        r = sandwich_check(base, n, seed)
        entry = f"n={n}: {r.mc_lower} <= {r.r1_estimate} <= {r.mc_upper} (MC^n={r.mc_power})"
        entries.append(entry if r.ok else entry + " VIOLATED")
    return "; ".join(entries)


def _claim_property_suite(seed):
    """On 200 random networks: each min-cut witness recomputes, MC is
    multiplicative under the tensor square, the rank estimate stays below
    MC, and a witness for l = 2 on the all-uv orientation is valid (from
    the search, or from the count on a directed diamond, by :func:`_status`)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    violations = []
    for i in range(200):
        net = random_network(rng)
        cut = min_cut(net)
        # estimate_r1 cuts ``net`` again; right after min_cut(net), that is the kept cut.
        est = estimate_r1(net, trials=1, seed=seed + i)
        if cut_value(net, cut.s_side) != cut.value:
            violations.append(f"net {i}: witness does not recompute")
        if min_cut(tensor_power(net, 2)).value != cut.value**2:
            violations.append(f"net {i}: MC not multiplicative")
        if est.r1_lower > cut.value:
            violations.append(f"net {i}: r1 exceeds MC")
        oriented = orient(
            net, {e.id: "uv" for e in net.edges if not e.is_directed}
        )
        if is_acyclic(oriented) and _status(oriented, 2) == "invalid witness":
            violations.append(f"net {i}: witness not valid")
    if violations:
        return f"{len(violations)} violations: {violations[:3]}"
    return "0 violations"


#: Each claim's name, in run order, with the line it must print to pass.
CLAIMS = {
    "mincut-exactness": ("MC(fig2)=15, MC(N_d5)=[6]", _claim_mincut_exactness),
    "r1-gap": ("R1=14 MC=15", _claim_r1_gap),
    "r1-saturation": ("R1={2: 6, 3: 6, 4: 6}; witness rank 6", _claim_r1_saturation),
    "coding-achievability": (
        "split l=6: witness, up l=5: witness, transcribed valid: True",
        _claim_coding_achievability,
    ),
    "coding-impossibility": (
        "18 acyclic orientations + n2_up, statuses: ['impossible']",
        _claim_coding_impossibility,
    ),
    "conjecture-scaled": ("{2: (24, 24), 3: (54, 54)}", _claim_conjecture_scaled),
    "sandwich": (
        "n=1: 4 <= 6 <= 8 (MC^n=6); n=2: 32 <= 36 <= 64 (MC^n=36)",
        _claim_sandwich,
    ),
    "property-suite": ("0 violations", _claim_property_suite),
}


def run_claim(name: str, seed: int = 0) -> ClaimResult:
    expected, claim = CLAIMS[name]
    start = time.perf_counter()
    computed = claim(seed)
    return ClaimResult(name, expected, computed, time.perf_counter() - start)
