"""A generated state machine under ``IntervalIndex``: covers stay exact.

Whatever sequence of adds, replacements and removals the index lives
through — inclusive, exclusive, open, single-point and empty intervals,
int and float bounds that compare equal — every stab returns exactly
the entries a brute-force filter of the entries admits, each once, and
inspects nothing it does not return. The covers are rebuilt lazily, so
the stabs between mutations are also where a stale cover would show.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dra.predindex import IntervalIndex

KEYS = st.sampled_from([(f"s{i}", alias) for i in range(5) for alias in "ab"])
# 3 and 3.0 are one bound; -0.0 and 0.0 are one bound.
BOUND_VALUES = st.sampled_from([0, 1, 3, 3.0, 5, -0.0, 0.0, 2.5])
PROBES = st.sampled_from([-1, 0, -0.0, 1, 2, 2.5, 3, 3.0, 4, 5, 6]) | st.builds(
    float, st.just("nan")
)

# A lower bound (v, 0) is inclusive, (v, 1) exclusive; an upper bound
# (v, 1) inclusive, (v, 0) exclusive; None is open.
lows = st.none() | st.tuples(BOUND_VALUES, st.sampled_from([0, 1]))
highs = st.none() | st.tuples(BOUND_VALUES, st.sampled_from([0, 1]))
points = BOUND_VALUES.map(lambda v: ((v, 0), (v, 1)))  # [v, v]
empties = BOUND_VALUES.map(lambda v: ((v, 1), (v, 0)))  # (v, v)
intervals = st.tuples(lows, highs) | points | empties


def admitted(model, value):
    """The brute-force oracle: every entry whose bounds admit ``value``;
    NaN is admitted by none."""
    if value != value:
        return set()
    return {
        key
        for key, (low, high) in model.items()
        if (low is None or low <= (value, 0))
        and (high is None or high >= (value, 1))
    }


class IntervalMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.index = IntervalIndex()
        self.model = {}
        self.last = ((), 0)

    @rule(key=KEYS, interval=intervals)
    def add(self, key, interval):
        self.index.add(key, *interval)
        self.model[key] = interval

    @rule(data=st.data(), interval=intervals)
    def replace(self, data, interval):
        if not self.model:
            return
        key = data.draw(st.sampled_from(sorted(self.model)))
        self.index.add(key, *interval)
        self.model[key] = interval

    @rule(key=KEYS)
    def remove(self, key):
        self.index.remove(key)
        self.model.pop(key, None)

    @rule(value=PROBES)
    def stab(self, value):
        self.last = matches, __ = self.index.stab(value)
        assert set(matches) == admitted(self.model, value)

    @invariant()
    def a_stab_inspects_what_it_returns_once(self):
        matches, inspected = self.last
        assert inspected == len(matches)
        assert len(set(matches)) == len(matches)

    @invariant()
    def sizes_agree(self):
        assert len(self.index) == len(self.model)


TestIntervalMachine = IntervalMachine.TestCase
TestIntervalMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
