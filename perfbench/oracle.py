"""Independent scalar oracles and the tally behind ``ok_frac``.

Prices are checked against :func:`repro.finance.binomial.price_binomial`
and greeks against :func:`repro.finance.greeks.lattice_greeks`, both
per-option loops that share no code with the batch kernels' roll.

Every miss counts against ``ok_frac`` and in ``failed``.  A miss is
*explained* when it is the known seed defect (ROADMAP item 1): a
European put that came back at its American price.  Explained misses
still count as failures; any other miss also marks the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro import ExerciseStyle, OptionType
from repro.finance.binomial import price_binomial
from repro.finance.greeks import lattice_greeks

PRICE_RTOL = 1e-9
PRICE_ATOL = 1e-9
GREEK_RTOL = 1e-9
GREEK_ATOL = 1e-7
GREEK_FIELDS = ("delta", "gamma", "theta", "vega", "rho")


def close(value: float, expected: float, rtol: float, atol: float) -> bool:
    return (math.isfinite(value)
            and abs(value - expected) <= atol + rtol * abs(expected))


def is_european_put(option) -> bool:
    return (option.exercise is ExerciseStyle.EUROPEAN
            and option.option_type is OptionType.PUT)


def american_twin(option):
    return replace(option, exercise=ExerciseStyle.AMERICAN)


def price_oracle(option, steps: int) -> float:
    return float(price_binomial(option, steps).price)


def greeks_oracle(option, steps: int) -> "dict[str, float]":
    greeks = lattice_greeks(option, steps)
    out = {"prices": float(greeks.price)}
    for name in GREEK_FIELDS:
        out[name] = float(getattr(greeks, name))
    return out


@dataclass
class Tally:
    """Oracle checks of one run."""

    checked: int = 0
    ok: int = 0
    explained: int = 0
    missing: int = 0
    unexplained: "list[str]" = field(default_factory=list)

    @property
    def misses(self) -> int:
        return self.checked - self.ok

    @property
    def ok_frac(self) -> float:
        return self.ok / self.checked if self.checked else 0.0

    def record_missing(self, n: int, why: str) -> None:
        """``n`` results that never arrived (errors, timeouts)."""
        self.checked += n
        self.missing += n
        self.unexplained.append(f"{n} result(s) missing: {why}")

    def record(self, ok: bool, explained: bool = False,
               what: str = "") -> None:
        self.checked += 1
        if ok:
            self.ok += 1
        elif explained:
            self.explained += 1
        else:
            self.unexplained.append(what)


def check_price(tally: Tally, option, value: float,
                expected: float, american: "float | None" = None) -> None:
    """Check one price; ``american`` is the American-twin oracle price
    (needed only for European puts, to recognise the seed defect)."""
    if close(value, expected, PRICE_RTOL, PRICE_ATOL):
        tally.record(True)
        return
    explained = (is_european_put(option) and american is not None
                 and close(value, american, PRICE_RTOL, PRICE_ATOL))
    tally.record(False, explained,
                 f"price {value!r} != oracle {expected!r} for {option}")


def check_greeks(tally: Tally, option, values: dict,
                 expected: dict, american: "dict | None" = None) -> None:
    """Check a price plus its five greeks as one result."""
    def matches(reference):
        return (close(values["prices"], reference["prices"],
                      PRICE_RTOL, PRICE_ATOL)
                and all(close(values[name], reference[name],
                              GREEK_RTOL, GREEK_ATOL)
                        for name in GREEK_FIELDS))

    if matches(expected):
        tally.record(True)
        return
    explained = (is_european_put(option) and american is not None
                 and matches(american))
    tally.record(False, explained,
                 f"greeks {values} != oracle {expected} for {option}")
