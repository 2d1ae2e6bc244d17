"""Network construction, extended lists, and serialization round-trips."""

import typing
from dataclasses import replace

import pytest

from chordcheck.ident import RingParams
from chordcheck.netstate import (
    extended_succ_list,
    init_network,
    is_live,
    network_from_dict,
    network_from_json,
    network_to_dict,
    network_to_json,
    validate_network,
)
from chordcheck.invariants import is_valid
from chordcheck.topology import is_ideal
from chordcheck.checker import sample_valid_states
from chordcheck.events import apply_fail

from conftest import wrap_trap_state, make_net

PARAMS = RingParams(m=6, r=2)


class TestInitNetwork:
    def test_three_ring_lists(self):
        net = init_network(PARAMS, [7, 19, 33])
        assert net.node(7).succ_list == (19, 33)
        assert net.node(19).succ_list == (33, 7)
        assert net.node(33).succ_list == (7, 19)
        assert net.node(7).pred == 33

    def test_rejects_undersized_base(self):
        with pytest.raises(ValueError):
            init_network(PARAMS, [48])

    def test_rejects_oversized_base(self):
        with pytest.raises(ValueError):
            init_network(PARAMS, [1, 2, 3, 4])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            init_network(PARAMS, [7, 7, 19])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            init_network(PARAMS, [7, 19, 64])

    @pytest.mark.parametrize("base", [(0, 1, 2), (5, 29, 60), (10, 20, 30)])
    def test_init_is_ideal_and_valid(self, base):
        net = init_network(PARAMS, base)
        assert is_ideal(net)
        assert is_valid(net)

    def test_init_r3(self):
        params = RingParams(m=6, r=3)
        net = init_network(params, [4, 18, 33, 50])
        assert net.node(50).succ_list == (4, 18, 33)
        assert is_ideal(net)

    def test_annotations_resolve(self):
        hints = typing.get_type_hints(init_network)
        assert hints["base_ids"] == typing.Iterable[int]


class TestValidateNetwork:
    def test_accepts_sampled_states(self):
        for net in sample_valid_states(RingParams(6, 3), 9, 100, seed=5):
            validate_network(net)

    def test_accepts_a_departed_member(self):
        validate_network(apply_fail(wrap_trap_state(), 3))

    @pytest.mark.parametrize(
        "change",
        [
            {"succ_list": ()},
            {"succ_list": (20,)},
            {"succ_list": (20, 31, 52)},
            {"succ_list": (20, 40)},
            {"pred": 40},
            {"succ_list": (20, 64)},
            {"pred": -1},
        ],
    )
    def test_rejects_malformed_member(self, change):
        net = wrap_trap_state()
        net = net.with_node(replace(net.node(52), **change))
        with pytest.raises(ValueError):
            validate_network(net)

    def test_rejects_untracked_base_member(self):
        net = wrap_trap_state()
        with pytest.raises(ValueError):
            validate_network(replace(net, base=frozenset({20, 31, 40})))

    def test_rejects_out_of_range_identifier(self):
        net = make_net(3, 2, base=[1, 2, 9], nodes={1: (9, (2, 9)), 2: (1, (9, 1)), 9: (2, (1, 2))})
        with pytest.raises(ValueError):
            validate_network(net)


class TestExtendedSuccList:
    def test_prepends_own_ident(self):
        net = wrap_trap_state()
        assert extended_succ_list(net, 52) == (52, 3, 45)
        assert extended_succ_list(net, 45) == (45, 20, 31)

    def test_fresh_base_member_is_consecutive(self):
        net = init_network(PARAMS, [7, 19, 33])
        assert extended_succ_list(net, 7) == (7, 19, 33)

    def test_rejects_non_member(self):
        net = init_network(PARAMS, [7, 19, 33])
        with pytest.raises(ValueError):
            extended_succ_list(net, 10)


class TestLiveness:
    def test_base_member_live_after_init(self):
        net = init_network(PARAMS, [7, 19, 33])
        assert is_live(net, 7)

    def test_dead_after_fail(self):
        net = wrap_trap_state()
        net = apply_fail(net, 3)
        assert not is_live(net, 3)
        assert 3 in net.nodes  # last state retained

    def test_never_joined_identifier(self):
        net = init_network(PARAMS, [7, 19, 33])
        assert not is_live(net, 42)


class TestSerialization:
    def test_fixed_round_trip(self):
        net = wrap_trap_state()
        assert network_from_json(network_to_json(net)) == net

    def test_round_trip_preserves_pendings_and_dead(self):
        net = wrap_trap_state()
        net = apply_fail(net, 3)
        data = network_to_dict(net)
        dead_rec = next(rec for rec in data["nodes"] if rec["ident"] == 3)
        assert dead_rec["live"] is False
        assert network_from_dict(data) == net

    def test_random_states_round_trip(self):
        for net in sample_valid_states(RingParams(6, 3), 9, 300, seed=11):
            assert network_from_json(network_to_json(net)) == net

    def test_canonical_key_distinguishes(self):
        a = init_network(PARAMS, [7, 19, 33])
        b = init_network(PARAMS, [7, 19, 34])
        assert a.canonical_key() != b.canonical_key()
        assert a.canonical_key() == init_network(PARAMS, [7, 19, 33]).canonical_key()


def test_degenerate_base_allowed_outside_init():
    # Explicit states (demonstration scenarios, checker fixtures) may carry
    # an empty or undersized base; only init_network enforces r+1.
    net = make_net(6, 2, base=[], nodes={1: (None, (2, 3)), 2: (None, (3, 1)), 3: (None, (1, 2))})
    assert net.base == frozenset()
