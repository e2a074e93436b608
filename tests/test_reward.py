import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from feddrive.sim.reward import REWARD_BY_FLAGS, REWARD_CASES, EventFlags, InconsistentFlagsError, compute_reward

ALL_VALUES = {-10.0, 10.0, -0.05, 0.025, 0.05, 0.04, -0.02}


def all_consistent_flags():
    for bits in itertools.product([False, True], repeat=5):
        collided, reached, braking, waiting, moving = bits
        if collided and reached:
            continue
        yield EventFlags(
            collided=collided,
            reached_destination=reached,
            braking=braking,
            waiting_at_light=waiting,
            speed_nonzero=moving,
        )


def expected_reward(f: EventFlags) -> float:
    # independent restatement of the documented precedence
    if f.collided:
        return -10.0
    if f.reached_destination:
        return 10.0
    if f.braking and f.waiting_at_light:
        return -0.05
    if f.braking != f.waiting_at_light:
        return 0.025
    if f.speed_nonzero and not f.braking and not f.waiting_at_light:
        return 0.05
    if f.speed_nonzero:
        return 0.04
    return -0.02


def test_collision_case():
    assert compute_reward(EventFlags(collided=True, braking=True, speed_nonzero=True)) == -10.0


def test_destination_case():
    assert compute_reward(EventFlags(reached_destination=True, speed_nonzero=True)) == 10.0


def test_brake_and_wait_case():
    assert compute_reward(EventFlags(braking=True, waiting_at_light=True)) == -0.05


def test_brake_xor_wait_case():
    assert compute_reward(EventFlags(braking=True)) == 0.025
    assert compute_reward(EventFlags(waiting_at_light=True)) == 0.025


def test_free_movement_case():
    assert compute_reward(EventFlags(speed_nonzero=True)) == 0.05


def test_default_case():
    assert compute_reward(EventFlags()) == -0.02


def test_inconsistent_flags_rejected():
    with pytest.raises(InconsistentFlagsError):
        compute_reward(EventFlags(collided=True, reached_destination=True))


def test_case_table_values():
    values = {name: value for name, _pred, value in REWARD_CASES}
    assert values == {
        "collision": -10.0,
        "destination": 10.0,
        "brake_and_wait": -0.05,
        "brake_xor_wait": 0.025,
        "free_movement": 0.05,
        "nonzero_speed": 0.04,
        "default": -0.02,
    }


def test_exhaustive_consistent_combinations():
    combos = list(all_consistent_flags())
    assert len(combos) == 24
    for flags in combos:
        assert compute_reward(flags) == expected_reward(flags)


def test_collision_precedence_over_everything():
    for flags in all_consistent_flags():
        if flags.collided:
            assert compute_reward(flags) == -10.0


@given(
    st.builds(
        EventFlags,
        collided=st.booleans(),
        reached_destination=st.booleans(),
        braking=st.booleans(),
        waiting_at_light=st.booleans(),
        speed_nonzero=st.booleans(),
    )
)
def test_totality_over_flag_space(flags):
    if flags.collided and flags.reached_destination:
        with pytest.raises(InconsistentFlagsError):
            compute_reward(flags)
    else:
        assert compute_reward(flags) in ALL_VALUES


def test_reward_lookup_equals_first_match_over_the_case_table():
    combos = list(all_consistent_flags())
    assert set(REWARD_BY_FLAGS) == set(combos)
    for flags in combos:
        first = next(value for _name, predicate, value in REWARD_CASES if predicate(flags))
        assert REWARD_BY_FLAGS[flags] == first
        assert compute_reward(flags) == first
    # the one inconsistent pair is not in the table and still raises, whatever the other flags
    for braking, waiting, moving in itertools.product([False, True], repeat=3):
        flags = EventFlags(True, True, braking, waiting, moving)
        assert flags not in REWARD_BY_FLAGS
        with pytest.raises(InconsistentFlagsError):
            compute_reward(flags)


def test_event_flags_repr_and_fields():
    flags = EventFlags(collided=True, speed_nonzero=True)
    assert repr(flags) == (
        "EventFlags(collided=True, reached_destination=False, braking=False, "
        "waiting_at_light=False, speed_nonzero=True)"
    )
    assert flags == EventFlags(True, False, False, False, True)
    with pytest.raises(AttributeError):
        flags.collided = False  # immutable, as a step record must be
