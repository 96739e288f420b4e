"""The transfer-operator critical exponent of tests/transfer.py: stable in the
number of collocation nodes, equal to the ten-digit values of ROADMAP.md's
reference table, and unchanged by conjugation."""

import pytest

from horolab.defaults import _interval_pair, cusped_group, schottky_group
from horolab.groups import FuchsianGroup

from conftest import conjugate
from transfer import operator_delta

# interval pairings (center, radius) of a and b, and the operator delta to
# ten digits; the first is the builtin Schottky group
GROUPS = {
    "builtin": ((2.0, 1.0), (5.0, 1.5), 0.4309749425),
    "thin": ((2.0, 0.5), (5.0, 1.0), 0.2879964178),
    "wide": ((3.0, 1.0), (8.0, 2.0), 0.3293877033),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_operator_delta_converges_to_the_table(name):
    a, b, want = GROUPS[name]
    group = FuchsianGroup(_interval_pair("a", *a) + _interval_pair("b", *b), name=name)
    coarse, fine = operator_delta(group, 24), operator_delta(group, 48)
    assert abs(coarse - fine) < 1e-9
    assert abs(fine - want) < 1e-9


def test_operator_delta_is_conjugation_invariant(rng):
    want = operator_delta(schottky_group())
    assert abs(want - GROUPS["builtin"][2]) < 1e-9
    for _ in range(3):
        conj, _ = conjugate(schottky_group(), rng)
        assert abs(operator_delta(conj) - want) < 1e-9


def test_operator_delta_refuses_a_parabolic_letter():
    with pytest.raises(ValueError, match="parabolic"):
        operator_delta(cusped_group())
