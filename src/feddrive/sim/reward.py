"""Per-step reward as a fixed, ordered case table over the step's event flags.

The cases overlap, so evaluation order matters and is frozen here: terminal
events first, then the combined traffic conditions, then free movement, then
bare nonzero speed, then the default.  ``compute_reward`` returns the value
of the first case whose predicate holds; ``REWARD_BY_FLAGS`` holds that value
for every consistent flag combination, computed once from the table, and
``FLAGS_AND_REWARD`` gives the simulator step both its flags record and that
value from one lookup on the plain flag tuple.

Note the nonzero-speed case (+0.04) is listed for completeness of the case
table but is shadowed by the earlier cases for every consistent flag
combination: by the time it is reached, braking and waiting are both false,
so any moving state was already caught by the free-movement case.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

R_COLLISION = -10.0
R_DESTINATION = 10.0
R_BRAKE_AND_WAIT = -0.05
R_BRAKE_XOR_WAIT = 0.025
R_FREE_MOVEMENT = 0.05
R_NONZERO_SPEED = 0.04
R_DEFAULT = -0.02


class InconsistentFlagsError(ValueError):
    """Raised for flag combinations the simulator can never produce."""


class EventFlags(NamedTuple):
    """Boolean events observed during one environment step."""

    collided: bool = False
    reached_destination: bool = False
    braking: bool = False
    waiting_at_light: bool = False
    speed_nonzero: bool = False


# (name, predicate, value), evaluated top to bottom; first match wins.
REWARD_CASES: tuple[tuple[str, object, float], ...] = (
    ("collision", lambda f: f.collided, R_COLLISION),
    ("destination", lambda f: f.reached_destination, R_DESTINATION),
    ("brake_and_wait", lambda f: f.braking and f.waiting_at_light, R_BRAKE_AND_WAIT),
    ("brake_xor_wait", lambda f: f.braking != f.waiting_at_light, R_BRAKE_XOR_WAIT),
    (
        "free_movement",
        lambda f: f.speed_nonzero and not f.braking and not f.waiting_at_light,
        R_FREE_MOVEMENT,
    ),
    ("nonzero_speed", lambda f: f.speed_nonzero, R_NONZERO_SPEED),
    ("default", lambda f: True, R_DEFAULT),
)


# every consistent combination of the five flags -> the value of its first matching case; a
# NamedTuple hashes and compares as the plain tuple of its fields
REWARD_BY_FLAGS: dict[EventFlags, float] = {
    flags: next(value for _name, predicate, value in REWARD_CASES if predicate(flags))
    for flags in itertools.starmap(EventFlags, itertools.product((False, True), repeat=5))
    if not (flags.collided and flags.reached_destination)
}


# the step's one lookup: the plain tuple of its five flags -> (its EventFlags, its reward), from REWARD_BY_FLAGS
FLAGS_AND_REWARD: dict[tuple[bool, ...], tuple[EventFlags, float]] = {
    tuple(flags): (flags, reward) for flags, reward in REWARD_BY_FLAGS.items()
}


def compute_reward(flags: EventFlags) -> float:
    """Reward for one step: value of the first matching case in REWARD_CASES.

    Raises ``InconsistentFlagsError`` for flags the simulator can never produce.
    """
    try:
        return REWARD_BY_FLAGS[flags]
    except KeyError:
        raise InconsistentFlagsError("collided and reached_destination are mutually exclusive") from None
