"""The phase-end slack test against its Fraction formula (hypothesis).

A tenant's phase that floats put just past the wall-seconds left of a chunk
ends in that chunk when its exact residue is within 1e-12 s of them
(``cosim._ends_within``).  The library decides that in integers, from each
float's ``as_integer_ratio()``; ``oracles.ends_within_fraction`` decides it
in :class:`fractions.Fraction` arithmetic.  Both must agree on every input:
past the ~500 s branch where floats decide, on zeros, on the smallest
subnormal, and on residues a few ulps either side of the slack.

``HYPOTHESIS_PROFILE=nightly`` raises the example budget (conftest.py).
"""

from __future__ import annotations

import math
import random
import types

from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from repro.fabric.cosim import _ends_within

#: Values that sit on the edges of the integer arithmetic.
SPECIAL = (0.0, 5e-324, 1e-12)


def decide(runtime: float, elapsed: float, rate: float, dt: float, used: float) -> bool:
    state = types.SimpleNamespace(runtimes=(runtime,), phase_index=0, phase_elapsed=elapsed)
    return _ends_within(state, rate, dt, used)


def near_tie(elapsed: float, rate: float, dt: float, used: float, ulps: int) -> float:
    """A runtime whose residue is ``ulps`` steps from ``(dt - used + 1e-12) * rate``."""
    runtime = elapsed + (dt - used + 1e-12) * rate
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        runtime = math.nextafter(runtime, toward)
    return runtime


def values(hi: float):
    return st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, hi))


@st.composite
def cases(draw):
    rate = draw(st.one_of(st.sampled_from((1.0, 0.5) + SPECIAL[1:]), st.floats(5e-324, 1.0)))
    dt = draw(values(1000.0))
    used = draw(st.one_of(st.sampled_from((0.0, dt)), st.floats(0.0, dt)))
    elapsed = draw(values(600.0))
    if draw(st.booleans()):
        runtime = near_tie(elapsed, rate, dt, used, draw(st.integers(-3, 3)))
    else:
        runtime = draw(values(600.0))
    return runtime, elapsed, rate, dt, used


@given(case=cases())
# Floats decide: phase plus chunk past 500 s.
@example(case=(400.0, 0.0, 1.0, 200.0, 0.0))
@example(case=(near_tie(100.0, 0.25, 450.0, 10.0, 1), 100.0, 0.25, 450.0, 10.0))
# Exact ties on the slack, and one ulp past it.
@example(case=(1e-12, 0.0, 1.0, 0.0, 0.0))
@example(case=(math.nextafter(1e-12, 1.0), 0.0, 1.0, 0.0, 0.0))
@example(case=(near_tie(3.0, 0.7, 12.5, 2.5, 0), 3.0, 0.7, 12.5, 2.5))
@example(case=(near_tie(3.0, 0.7, 12.5, 2.5, 1), 3.0, 0.7, 12.5, 2.5))
# Zeros and the smallest subnormal in every position.
@example(case=(0.0, 0.0, 1.0, 0.0, 0.0))
@example(case=(5e-324, 0.0, 5e-324, 5e-324, 0.0))
@example(case=(5e-324, 5e-324, 1.0, 5e-324, 5e-324))
@example(case=(1e-12, 5e-324, 1e-12, 1e-12, 1e-12))
def test_integer_ratios_decide_as_fractions_do(case):
    assert decide(*case) == oracles.ends_within_fraction(*case)


def test_seeded_near_ties_decide_as_fractions_do():
    """Residues within a few ulps of the slack, over chunk and phase scales."""
    rng = random.Random(0)
    for _ in range(3000):
        rate = rng.choice((1.0, rng.random(), rng.uniform(1e-6, 1e-3)))
        dt = rng.choice((rng.uniform(0.0, 1.0), rng.uniform(0.0, 600.0)))
        used = rng.choice((0.0, rng.uniform(0.0, dt)))
        elapsed = rng.uniform(0.0, 400.0)
        runtime = near_tie(elapsed, rate, dt, used, rng.randint(-4, 4))
        assert decide(runtime, elapsed, rate, dt, used) == oracles.ends_within_fraction(
            runtime, elapsed, rate, dt, used
        )
