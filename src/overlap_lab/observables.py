"""Declarative test functions over overlap matrices.

An observable pairs a bounded function f of the first n replicas with a
one-variable function psi applied to a single fresh-replica overlap.
f is either a partial pattern of required levels or a monomial in chosen
entries; psi is a monomial power or a level indicator. Everything compiles
to a product-of-factors statistic evaluated by the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

MAX_MONOMIAL_POWER = 8


@dataclass(frozen=True)
class Psi:
    """Either x**power or the indicator of one grid level."""

    kind: str           # "monomial" | "indicator"
    value: int

    def __post_init__(self):
        if self.kind not in ("monomial", "indicator"):
            raise ValueError(f"unknown psi kind {self.kind!r}")
        if self.kind == "monomial" and not 1 <= self.value <= MAX_MONOMIAL_POWER:
            raise ValueError("monomial power must be in 1..8")
        if self.kind == "indicator" and self.value < 1:
            raise ValueError("indicator level must be a 1-based level index")

    def label(self) -> str:
        return f"x^{self.value}" if self.kind == "monomial" else f"1[q{self.value}]"


@dataclass(frozen=True)
class ObservableSpec:
    """(f, psi, n): f constrains/weights the n-replica matrix; psi the fresh overlap.

    f_pattern maps 1-based replica pairs (l, l') with l < l' <= n to required
    level indices; f_monomial lists ((l, l'), power) factors. Exactly one of
    the two may be nonempty; both empty means f == 1.
    """

    n: int
    psi: Psi
    f_pattern: Tuple[Tuple[Tuple[int, int], int], ...] = field(default_factory=tuple)
    f_monomial: Tuple[Tuple[Tuple[int, int], int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("observables need n >= 2")
        if self.f_pattern and self.f_monomial:
            raise ValueError("choose pattern or monomial form for f, not both")
        for (l, lp), v in (*self.f_pattern, *self.f_monomial):
            if not 1 <= l < lp <= self.n:
                raise ValueError(f"position ({l},{lp}) out of bounds for n={self.n}")
            if v < 1:
                raise ValueError("levels and powers are >= 1")
        for (_, _), p in self.f_monomial:
            if p > MAX_MONOMIAL_POWER:
                raise ValueError("monomial power must be <= 8")

    def observable_id(self) -> str:
        if self.f_pattern:
            fpart = "f=" + ",".join(f"R{l}{lp}=q{v}" for (l, lp), v in self.f_pattern)
        elif self.f_monomial:
            fpart = "f=" + ",".join(f"R{l}{lp}^{p}" for (l, lp), p in self.f_monomial)
        else:
            fpart = "f=1"
        return f"n{self.n}:{fpart}:psi={self.psi.label()}"

    def levels(self) -> tuple:
        """The grid levels f's pattern and an indicator psi name."""
        psi = (self.psi.value,) if self.psi.kind == "indicator" else ()
        return tuple(v for _, v in self.f_pattern) + psi


# The factor kinds, in the order a statistic multiplies them
KINDS = ("pattern", "threshold", "sorted3", "monomial")


@dataclass(frozen=True)
class Statistic:
    """One product-of-factors statistic on an n x n level matrix.

    Each factor is a key, and each with_* returns a new statistic with one
    key appended:
      ("pattern", i, j, level)   I(levels[i, j] == level), 0-based i < j
      ("threshold", r, t)        I(every level among the first r replicas <= t)
      ("sorted3", (a, b, c))     I(sorted (levels[0, 1], levels[0, 2],
                                 levels[1, 2]) == (a, b, c))
      ("monomial", i, j, power)  values[levels[i, j]] ** power
    """

    n: int
    factors: tuple = ()

    def _with(self, *key) -> "Statistic":
        return Statistic(self.n, self.factors + (key,))

    def with_pattern(self, i: int, j: int, level: int) -> "Statistic":
        return self._with("pattern", min(i, j), max(i, j), level)

    def with_monomial(self, i: int, j: int, power: int) -> "Statistic":
        return self._with("monomial", min(i, j), max(i, j), power)

    def with_threshold(self, r: int, t: int) -> "Statistic":
        return self._with("threshold", r, t)

    def with_sorted_triple(self, levels: Sequence[int]) -> "Statistic":
        if self.n < 3:
            raise ValueError("sorted-triple factor needs n >= 3")
        return self._with("sorted3", tuple(sorted(int(v) for v in levels)))

    def with_psi(self, psi: Psi, i: int, j: int) -> "Statistic":
        if psi.kind == "monomial":
            return self.with_monomial(i, j, psi.value)
        return self.with_pattern(i, j, psi.value)

    def evaluate_one(self, levels: np.ndarray, values: np.ndarray) -> float:
        """Plain reference evaluation on one matrix (oracle/tests)."""
        v = 1.0
        for kind, *args in self.factors:
            if kind == "pattern":
                i, j, level = args
                if levels[i, j] != level:
                    return 0.0
            elif kind == "threshold":
                r, t = args
                if any(levels[a, b] > t
                       for a in range(r - 1) for b in range(a + 1, r)):
                    return 0.0
            elif kind == "sorted3":
                tri = sorted((int(levels[0, 1]), int(levels[0, 2]),
                              int(levels[1, 2])))
                if tuple(tri) != args[0]:
                    return 0.0
            else:
                i, j, power = args
                v *= float(values[levels[i, j]]) ** power
        return v


def statistic_for_f(obs: ObservableSpec) -> Statistic:
    """The f part of an observable as a Statistic on n (or more) replicas."""
    st = Statistic(obs.n)
    for (l, lp), level in obs.f_pattern:
        st = st.with_pattern(l - 1, lp - 1, level)
    for (l, lp), power in obs.f_monomial:
        st = st.with_monomial(l - 1, lp - 1, power)
    return st


def pack_statistics(stats: Sequence[Statistic]):
    """(offsets, factors): statistic s multiplies the factor keys
    factors[offsets[s]:offsets[s + 1]], which are its own sorted stably
    by kind in KINDS order."""
    offsets = np.cumsum([0, *(len(st.factors) for st in stats)])
    factors = tuple(key for st in stats for key in
                    sorted(st.factors, key=lambda key: KINDS.index(key[0])))
    return offsets, factors


def default_gg_observables(n_values=(2, 3, 4)) -> list:
    """The standard grid of GG observables used by acceptance runs.

    Per n: f in {level-1 pattern on (1,2), linear monomial on (1,2)} crossed
    with psi in {x, x^2, level-1 indicator}; 4 specs per n keeps the total
    at 12 for three n values.
    """
    fpat = (((1, 2), 1),)   # R12 at level 1
    fmono = (((1, 2), 1),)  # R12 to the first power
    out = []
    for n in n_values:
        out.append(ObservableSpec(n, Psi("monomial", 1), f_pattern=fpat))
        out.append(ObservableSpec(n, Psi("monomial", 2), f_pattern=fpat))
        out.append(ObservableSpec(n, Psi("indicator", 1), f_pattern=fpat))
        out.append(ObservableSpec(n, Psi("monomial", 1), f_monomial=fmono))
    return out
