"""Limit laws as finite-support distributions.

All laws are truncated to finite support with the discarded probability
reported as tail_mass, so distances computed from them are honest upper
bounds. Probabilities are floats except where a caller builds a law from
exact rational masses (the enumeration oracle does); the utilities preserve
Fraction arithmetic when they receive it.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from monoplex.core import ResourceBoundError, ValidationError, _is_int

Real = Union[float, Fraction]

DEFAULT_TAIL_TOL = 1e-10

MAX_JOINT_DIMENSION = 4

_NORMALIZATION_SLACK = 1e-12

# Past this rate exp(-rate) is no longer a normal float: the Poisson
# recurrence then starts from a subnormal or zero and loses the law's mass.
MAX_POISSON_RATE = -math.log(sys.float_info.min)

# States a dense joint law may hold (8 bytes each).
MAX_LAW_CELLS = 1 << 24


@dataclass(frozen=True)
class DiscreteLaw:
    """Finite-support distribution on d-tuples of non-negative integers."""

    dimension: int
    support: tuple[tuple[int, ...], ...]
    pmf: Mapping[tuple[int, ...], Real]
    tail_mass: Real


@dataclass(frozen=True)
class SharedComponentSpec:
    """Rates for T_i = sum over subsets S containing i of Z_S, with the Z_S
    independent Poisson variables. Keys are frozensets over {1..d}."""

    dimension: int
    rates: Mapping[frozenset[int], float]


@dataclass(frozen=True)
class LawMoments:
    means: tuple[Real, ...]
    covariance: tuple[tuple[Real, ...], ...]


def _make_law(d: int, pmf: dict[tuple[int, ...], Real], tail_mass: Real) -> DiscreteLaw:
    pmf = {x: p for x, p in pmf.items() if p != 0}
    for x, p in pmf.items():
        if p < 0:
            raise AssertionError(f"negative mass {p} at {x}")
    total = sum(pmf.values()) + tail_mass
    if abs(total - 1) > _NORMALIZATION_SLACK:
        raise AssertionError(f"law mass {total} deviates from 1")
    return DiscreteLaw(d, tuple(sorted(pmf)), pmf, tail_mass)


def law_from_pmf(d: int, pmf: Mapping[tuple[int, ...], Real], tail_mass: Real = 0) -> DiscreteLaw:
    """Wrap an explicit pmf (e.g. exact enumeration output) as a DiscreteLaw."""
    return _make_law(d, dict(pmf), tail_mass)


def _poisson_terms(lam: float, tol: float) -> tuple[list[float], float]:
    """Truncated Pois(lam) pmf as a list over k = 0..k_max, plus tail mass:
    the smallest k_max with remaining mass < tol."""
    if lam < 0:
        raise ValidationError(f"rate: must be >= 0, got {lam}")
    if lam > MAX_POISSON_RATE:
        raise ResourceBoundError(
            f"Poisson rate {lam} exceeds {MAX_POISSON_RATE:.2f}, past which exp(-rate) underflows"
        )
    if lam == 0:
        return [1.0], 0.0
    terms = []
    p = math.exp(-lam)
    cum = 0.0
    k = 0
    while True:
        terms.append(p)
        cum += p
        if 1.0 - cum < tol:
            break
        k += 1
        p *= lam / k
        if k > 100_000:
            raise ResourceBoundError(f"poisson truncation did not converge for rate {lam}")
    return terms, max(0.0, 1.0 - cum)


def poisson_law(lam: float, tail_tol: float = DEFAULT_TAIL_TOL) -> DiscreteLaw:
    """Pois(lam), truncated at the smallest k_max with tail below tail_tol."""
    terms, tail = _poisson_terms(lam, tail_tol)
    return _make_law(1, {(k,): p for k, p in enumerate(terms)}, tail)


def new_shared_component_spec(
    d: int, rates: Mapping[Iterable[int], float]
) -> SharedComponentSpec:
    if d < 1:
        raise ValidationError(f"dimension: must be >= 1, got {d}")
    canon: dict[frozenset[int], float] = {}
    for key, lam in rates.items():
        s = frozenset(key)
        if not s:
            raise ValidationError("rates: empty subset key")
        if not all(_is_int(i) and 1 <= i <= d for i in s):
            raise ValidationError(f"rates: subset {sorted(s)} not within [1, {d}]")
        if s in canon:
            raise ValidationError(f"rates: duplicate subset {sorted(s)}")
        if not math.isfinite(lam) or lam < 0:
            raise ValidationError(f"rates[{sorted(s)}]: rate must be finite >= 0, got {lam}")
        canon[s] = float(lam)
    return SharedComponentSpec(d, canon)


def _poisson_sum(
    d: int, steps: Sequence[tuple[int, ...]], rates: Sequence[float], tail_tol: float
) -> DiscreteLaw:
    """Law of the d-vector sum over j of steps[j] * Z_j, for independent
    Z_j ~ Pois(rates[j]) each truncated at tail_tol / (number of positive
    rates): a convolution in float64 on a dense array over the box of the
    sums the truncated terms reach. The tail is the mass the truncation drops."""
    active = [(step, lam) for step, lam in zip(steps, rates) if lam > 0]
    per_comp_tol = tail_tol / max(1, len(active))
    dist = np.ones((1,) * d)
    for step, lam in active:
        terms, _ = _poisson_terms(lam, per_comp_tol)
        top = len(terms) - 1
        shape = tuple(a + top * b for a, b in zip(dist.shape, step))
        if math.prod(shape) > MAX_LAW_CELLS:
            raise ResourceBoundError(
                f"law over {' x '.join(map(str, shape))} states exceeds bound {MAX_LAW_CELLS}"
            )
        nxt = np.zeros(shape)
        # k runs down: a state reached from several k adds its terms from the
        # largest k first, as the dict convolution in tests/oracles.py does.
        for k in range(top, -1, -1):
            nxt[tuple(slice(k * b, k * b + a) for a, b in zip(dist.shape, step))] += terms[k] * dist
        dist = nxt
    states = np.nonzero(dist)
    masses = dist[states].tolist()
    pmf = dict(zip(zip(*(axis.tolist() for axis in states)), masses))
    # Component tails compound multiplicatively; the union bound keeps the
    # reported tail an upper bound on the truncated mass.
    return _make_law(d, pmf, max(1.0 - fsum(masses), 0.0))


def shared_component_law(
    spec: SharedComponentSpec, tail_tol: float = DEFAULT_TAIL_TOL
) -> DiscreteLaw:
    """Joint law of (T_1..T_d) with T_i = sum of Z_S over subsets S containing
    i, for independent Z_S ~ Pois(rate_S), by _poisson_sum."""
    d = spec.dimension
    if d > MAX_JOINT_DIMENSION:
        raise ValidationError(
            f"dimension {d} exceeds joint-law bound {MAX_JOINT_DIMENSION}"
        )
    steps = [tuple(int(i + 1 in s) for i in range(d)) for s in spec.rates]
    return _poisson_sum(d, steps, list(spec.rates.values()), tail_tol)


def compound_weighted_law(
    rates: Sequence[float], tail_tol: float = DEFAULT_TAIL_TOL
) -> DiscreteLaw:
    """Law of sum over i of i*Z_i, i = 1..K, independent Z_i ~ Pois(rates[i-1])."""
    if len(rates) < 1:
        raise ValidationError("rates: at least one rate required")
    for i, lam in enumerate(rates):
        if lam < 0:
            raise ValidationError(f"rates[{i}]: must be >= 0, got {lam}")
    return _poisson_sum(1, [(i + 1,) for i in range(len(rates))], rates, tail_tol)


def binom2_poisson_law(mu: float, tail_tol: float = DEFAULT_TAIL_TOL) -> DiscreteLaw:
    """Pushforward of Pois(mu) under k -> k(k-1)/2; support {0, 1, 3, 6, ...}."""
    terms, tail = _poisson_terms(mu, tail_tol)
    pmf: dict[tuple[int, ...], float] = {}
    for k, p in enumerate(terms):
        x = (k * (k - 1) // 2,)
        pmf[x] = pmf.get(x, 0.0) + p
    return _make_law(1, pmf, tail)


def tv_distance(P: DiscreteLaw, Q: DiscreteLaw) -> Real:
    """Half the l1 gap over the union support, plus half of both tail masses
    (an upper bound on the true total-variation distance).

    Exact when no mass is a float and some is a Fraction. Otherwise each
    mass is converted to float once (a Fraction to numerator / denominator,
    the value that Fraction - float rounds it to) and the gaps are summed
    exactly rounded by fsum."""
    if P.dimension != Q.dimension:
        raise ValidationError(f"dimension mismatch: {P.dimension} != {Q.dimension}")
    masses = (*P.pmf.values(), *Q.pmf.values())
    exact = not any(isinstance(m, float) for m in masses) and any(
        isinstance(m, Fraction) for m in masses
    )
    convert = Fraction if exact else float
    p = dict(zip(P.pmf, map(convert, P.pmf.values())))
    gaps = [abs(p.pop(x, 0) - m) for x, m in zip(Q.pmf, map(convert, Q.pmf.values()))]
    gaps.extend(map(abs, p.values()))  # the states of P alone
    if exact:
        core = sum(gaps, Fraction(0)) / 2
        return core + Fraction(P.tail_mass) / 2 + Fraction(Q.tail_mass) / 2
    return fsum(gaps) / 2.0 + (P.tail_mass + Q.tail_mass) / 2.0


def law_moments(P: DiscreteLaw) -> LawMoments:
    """Mean vector and covariance matrix of the truncated pmf, exact when the
    masses are rational: those are summed as integer numerators over one
    common denominator. Float masses are summed exactly rounded (fsum)."""
    d = P.dimension
    masses = list(P.pmf.values())
    cols = list(zip(*P.pmf))  # per axis, the states' coordinates
    rational = bool(masses) and all(isinstance(p, Fraction) for p in masses)
    if rational:
        den = math.lcm(*(p.denominator for p in masses))
        masses = [p.numerator * (den // p.denominator) for p in masses]
    acc, ratio = (sum, Fraction) if rational else (fsum, operator.truediv)
    total = acc(masses)
    if total == 0:
        return LawMoments((0.0,) * d, tuple((0.0,) * d for _ in range(d)))

    def mean(values):
        return ratio(acc(map(operator.mul, values, masses)), total)

    means = tuple(mean(cols[i]) for i in range(d))
    # cov[i][j] = cov[j][i], bit for bit: products of integer coordinates
    # are exact, so each off-diagonal entry is summed once and mirrored.
    cov = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            cov[i][j] = cov[j][i] = mean(map(operator.mul, cols[i], cols[j])) - means[i] * means[j]
    return LawMoments(means, tuple(map(tuple, cov)))
