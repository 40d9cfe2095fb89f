"""Seeded input generators: the program sees only what these return.

Every book is stratified over four contract classes (American/European
x call/put) in equal shares, so the share of European puts -- the
class the batch kernels misprice at the seed (ROADMAP item 1) -- is a
fixed quarter of the book on every seed.
"""

from __future__ import annotations

import numpy as np

from repro import ExerciseStyle, Option, OptionType

#: a quote strip holds 1..MAX_STRIP distinct contracts
MAX_STRIP = 8
#: share of requests that repeat a recent strip word for word
REQUOTE_SHARE = 0.2
#: how many of the latest strips a re-quote picks from
REQUOTE_WINDOW = 16
#: time steps of a tick tape: no run comes near the end of it
TAPE_STEPS = 10 ** 9

CLASSES = (
    (OptionType.CALL, ExerciseStyle.AMERICAN),
    (OptionType.PUT, ExerciseStyle.AMERICAN),
    (OptionType.CALL, ExerciseStyle.EUROPEAN),
    (OptionType.PUT, ExerciseStyle.EUROPEAN),
)


def draw_option(rng: np.random.Generator, option_class: int) -> Option:
    """One contract of ``CLASSES[option_class]`` with spread inputs.

    Rates stay strictly positive so every European put has a nonzero
    early-exercise premium (its American price differs measurably).
    """
    option_type, exercise = CLASSES[option_class]
    spot = float(rng.uniform(50.0, 150.0))
    moneyness = float(rng.uniform(0.8, 1.25))
    return Option(
        spot=spot,
        strike=spot / moneyness,
        rate=float(rng.uniform(0.01, 0.08)),
        volatility=float(rng.uniform(0.1, 0.6)),
        maturity=float(rng.uniform(0.1, 2.0)),
        option_type=option_type,
        exercise=exercise,
    )


def stratified_classes(rng: np.random.Generator, n: int,
                       block: int) -> "list[int]":
    """Class labels, each ``block`` holding every class equally often."""
    if block % len(CLASSES) or n % block:
        raise ValueError("block must split evenly into classes and n")
    labels: "list[int]" = []
    for _ in range(n // block):
        chunk = np.repeat(np.arange(len(CLASSES)), block // len(CLASSES))
        rng.shuffle(chunk)
        labels.extend(int(label) for label in chunk)
    return labels


def option_book(seed: int, n: int, block: int) -> "list[Option]":
    """``n`` contracts; every run of ``block`` is class-balanced."""
    rng = np.random.default_rng([seed, 1])
    return [draw_option(rng, label)
            for label in stratified_classes(rng, n, block)]


def quote_plan(seed: int, pool_size: int,
               n_requests: int) -> "list[tuple[int, ...]]":
    """Request strips as tuples of pool indices.

    A strip holds 1..``MAX_STRIP`` distinct pool contracts.  With
    probability ``REQUOTE_SHARE`` a request repeats one of the last
    ``REQUOTE_WINDOW`` strips word for word (a re-quote).
    """
    rng = np.random.default_rng([seed, 2])
    plan: "list[tuple[int, ...]]" = []
    for _ in range(n_requests):
        if plan and rng.random() < REQUOTE_SHARE:
            recent = plan[-REQUOTE_WINDOW:]
            plan.append(recent[int(rng.integers(len(recent)))])
            continue
        size = int(rng.integers(1, MAX_STRIP + 1))
        plan.append(tuple(int(i) for i in
                          rng.choice(pool_size, size=size, replace=False)))
    return plan


def position_book(seed: int, n: int, steps: int, tolerances):
    """A :class:`repro.stream.PositionBook` of ``n`` mixed positions."""
    from repro.stream import Position, PositionBook

    rng = np.random.default_rng([seed, 3])
    book = PositionBook(tolerances)
    for index, label in enumerate(stratified_classes(rng, n, 4)):
        option = draw_option(rng, label)
        quantity = float(rng.choice((-1.0, 1.0)) * rng.integers(1, 11))
        book.add(Position(f"pos{index:04d}", option, quantity, steps))
    return book


def tick_tape(seed: int, book):
    """A seeded synthetic tick tape over ``book``'s instruments.

    An iterator that draws each tick on demand, so the tape takes no
    memory and no run, however fast, reaches its end.
    """
    from repro.stream import SyntheticTickSource

    initial = {}
    for position in book.positions():
        option = position.option
        initial[position.instrument_id] = (option.spot, option.volatility,
                                           option.rate)
    return iter(SyntheticTickSource(initial, seed=seed * 7919 + 17,
                                    n_steps=TAPE_STEPS))
