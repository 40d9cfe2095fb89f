"""The generators are deterministic per seed and class-balanced."""

from itertools import islice

import gen


def _option_fields(options):
    return [(o.spot, o.strike, o.rate, o.volatility, o.maturity,
             o.option_type, o.exercise) for o in options]


def test_option_book_repeats_per_seed():
    assert (_option_fields(gen.option_book(7, 64, 32))
            == _option_fields(gen.option_book(7, 64, 32)))
    assert (_option_fields(gen.option_book(7, 64, 32))
            != _option_fields(gen.option_book(8, 64, 32)))


def test_every_block_holds_each_class_equally():
    book = gen.option_book(3, 64, 32)
    for start in range(0, 64, 32):
        block = book[start:start + 32]
        counts = [sum(1 for o in block
                      if (o.option_type, o.exercise) == cls)
                  for cls in gen.CLASSES]
        assert counts == [8, 8, 8, 8]


def test_quote_plan_repeats_per_seed_and_requotes():
    plan = gen.quote_plan(5, 512, 400)
    assert plan == gen.quote_plan(5, 512, 400)
    assert plan != gen.quote_plan(6, 512, 400)
    assert all(1 <= len(strip) <= gen.MAX_STRIP
               and len(set(strip)) == len(strip) for strip in plan)
    repeats = sum(1 for i, strip in enumerate(plan)
                  if strip in plan[max(0, i - gen.REQUOTE_WINDOW):i])
    assert 0.1 * len(plan) < repeats < 0.3 * len(plan)


def test_tick_tape_repeats_per_seed():
    book = gen.position_book(2, 8, 16, None)
    again = gen.position_book(2, 8, 16, None)
    assert (_option_fields(p.option for p in book.positions())
            == _option_fields(p.option for p in again.positions()))

    def head(seed, positions):
        return list(islice(gen.tick_tape(seed, positions), 64))

    assert head(2, book) == head(2, again)
    assert head(2, book) != head(3, book)
