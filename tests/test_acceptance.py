"""Acceptance gate: one test per headline criterion, one printed line each.

Each criterion re-derives its numbers from scratch through the public
API (via the reproduction registry) and checks them exactly, together
with a generous wall-clock budget.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they pass.
"""

import pytest

from entcap.reproduce import run_claim

# (criterion label, claim name, wall-clock budget in seconds)
CRITERIA = [
    ("1 min-cut exactness (fig2=15, family=6)", "mincut-exactness", 1.0),
    ("2 rank gap on the counterexample (R1=14 < MC=15)", "r1-gap", 1.0),
    ("3 rank saturation on the family (R1=6, d5 in 2..4)", "r1-saturation", 3.0),
    ("4 coding achievability (l=6 split, l=5 up-oriented)", "coding-achievability", 10.0),
    ("5 coding impossibility (l=6: 2 diamonds counted, 17 searched)", "coding-impossibility", 300.0),
    ("6 scaled-family conjecture (R1=MC: 24, 54)", "conjecture-scaled", 30.0),
    ("7 power-of-two sandwich (n=1,2)", "sandwich", 60.0),
    ("8 property suite (200 random networks)", "property-suite", 120.0),
]


@pytest.mark.parametrize(
    "label,claim,budget", CRITERIA, ids=[c[1] for c in CRITERIA]
)
def test_criterion(label, claim, budget):
    result = run_claim(claim)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {label}: {status} ({result.seconds:.2f}s) {result.computed}")
    assert result.passed, f"{label}: expected {result.expected}, got {result.computed}"
    assert result.seconds < budget, f"{label}: {result.seconds:.2f}s over {budget}s budget"
