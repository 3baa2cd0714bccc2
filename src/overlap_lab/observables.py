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

from . import _kernels

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


class Statistic:
    """One product-of-factors statistic on an n x n level matrix.

    Factors (all optional, multiplied together):
      patterns:   I(entry[i,j] == level)         0-based positions
      monomials:  value[entry[i,j]] ** power
      thresholds: I(all entries among first r replicas <= t)
      sorted3:    I(sorted three-replica off-diagonals == given sorted triple)
    """

    def __init__(self, n: int):
        self.n = n
        self.patterns: list = []
        self.monomials: list = []
        self.thresholds: list = []
        self.sorted3: list = []

    def copy(self) -> "Statistic":
        out = Statistic(self.n)
        out.patterns = list(self.patterns)
        out.monomials = list(self.monomials)
        out.thresholds = list(self.thresholds)
        out.sorted3 = list(self.sorted3)
        return out

    def with_pattern(self, i: int, j: int, level: int) -> "Statistic":
        out = self.copy()
        out.patterns.append((min(i, j), max(i, j), level))
        return out

    def with_monomial(self, i: int, j: int, power: int) -> "Statistic":
        out = self.copy()
        out.monomials.append((min(i, j), max(i, j), power))
        return out

    def with_threshold(self, r: int, t: int) -> "Statistic":
        out = self.copy()
        out.thresholds.append((r, t))
        return out

    def with_sorted_triple(self, levels: Sequence[int]) -> "Statistic":
        if self.n < 3:
            raise ValueError("sorted-triple factor needs n >= 3")
        out = self.copy()
        out.sorted3.append(tuple(sorted(int(v) for v in levels)))
        return out

    def with_psi(self, psi: Psi, i: int, j: int) -> "Statistic":
        if psi.kind == "monomial":
            return self.with_monomial(i, j, psi.value)
        return self.with_pattern(i, j, psi.value)

    def evaluate_one(self, levels: np.ndarray, values: np.ndarray) -> float:
        """Plain reference evaluation on one matrix (oracle/tests)."""
        v = 1.0
        for i, j, req in self.patterns:
            if levels[i, j] != req:
                return 0.0
        for r, t in self.thresholds:
            for a in range(r - 1):
                for b in range(a + 1, r):
                    if levels[a, b] > t:
                        return 0.0
        for want in self.sorted3:
            tri = tuple(sorted((int(levels[0, 1]), int(levels[0, 2]), int(levels[1, 2]))))
            if tri != want:
                return 0.0
        for i, j, p in self.monomials:
            v *= float(values[levels[i, j]]) ** p
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
    """Pack S statistics into the flat arrays the kernels consume."""
    pat_ptr, pat_i, pat_j, pat_req = [0], [], [], []
    mono_ptr, mono_i, mono_j, mono_pow = [0], [], [], []
    thr_ptr, thr_r, thr_t = [0], [], []
    srt_ptr, srt_lvl = [0], []
    for st in stats:
        for i, j, req in st.patterns:
            pat_i.append(i)
            pat_j.append(j)
            pat_req.append(req)
        pat_ptr.append(len(pat_i))
        for i, j, p in st.monomials:
            mono_i.append(i)
            mono_j.append(j)
            mono_pow.append(p)
        mono_ptr.append(len(mono_i))
        for r, t in st.thresholds:
            thr_r.append(r)
            thr_t.append(t)
        thr_ptr.append(len(thr_r))
        for tri in st.sorted3:
            srt_lvl.extend(tri)
        srt_ptr.append(len(srt_lvl) // 3)
    return (
        np.asarray(pat_ptr, dtype=np.int32),
        np.asarray(pat_i, dtype=np.int32),
        np.asarray(pat_j, dtype=np.int32),
        np.asarray(pat_req, dtype=np.int16),
        np.asarray(mono_ptr, dtype=np.int32),
        np.asarray(mono_i, dtype=np.int32),
        np.asarray(mono_j, dtype=np.int32),
        np.asarray(mono_pow, dtype=np.int32),
        np.asarray(thr_ptr, dtype=np.int32),
        np.asarray(thr_r, dtype=np.int32),
        np.asarray(thr_t, dtype=np.int16),
        np.asarray(srt_ptr, dtype=np.int32),
        np.asarray(srt_lvl, dtype=np.int16),
    )


def evaluate_statistics(levels_batch: np.ndarray, values: np.ndarray,
                        stats: Sequence[Statistic]) -> np.ndarray:
    """(T, S) matrix of statistic values over a batch of level matrices."""
    pack = pack_statistics(stats)
    return _kernels.eval_stats(np.ascontiguousarray(levels_batch), values, pack)


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
