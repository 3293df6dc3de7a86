"""Exact integer k-th roots, distances to nearest perfect powers and
perfect-power detection.

All arithmetic is on arbitrary-precision ints; floats only ever seed a
root and every candidate is corrected against the exact bracket
r^k <= v < (r+1)^k.  A root of at most 45 bits (v below 2^(45k), which
covers every v below 2^53 once k >= 3) is seeded straight from a
double, which lands within one of it; only larger roots run Newton's
iteration first.  One routine takes that bracket and keeps both powers:
floor_kth_root reads exactness off r^k, and nearest_power_distance
reads the distance off r^k and (r+1)^k without taking a power of its
own.

Perfect-power detection screens before it roots.  A q-th power y^q is a
q-th-power residue modulo every m: modulo a prime l = 1 (mod q) that is
0 (when l divides y) or one of the (l - 1)/q units x with
x^((l-1)/q) = 1; modulo 64 and 45045 = 9*5*7*11*13 a square is one of
the squares there.  A residue outside those sets proves v is not a q-th
power, so only values that pass every screen get the exact root, and
the screens can never change an answer, only skip roots that would have
failed.  They are built lazily, per exponent, and stay small: a few
residues per prime l, and the 12 squares modulo 64 and 2016 modulo 45045.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import Iterator, NamedTuple, Sequence


class KthRootResult(NamedTuple):
    root: int
    exact: bool


def _bracket(v: int, k: int) -> tuple[int, int, int]:
    # (r, r^k, (r+1)^k) with r the floor k-th root, for v >= 1 and k >= 2
    if k == 2:
        r = math.isqrt(v)
        return r, r * r, (r + 1) * (r + 1)
    if (bits := v.bit_length()) <= k:
        # 2^k > v means the root is 1
        return 1, 1, 1 << k
    if bits <= 45 * k:
        # a root of at most 45 bits: the double is off by well under one
        r = int(2.0 ** (math.log2(v) / k))
    else:
        try:
            # inflated to land at or above the root, so Newton descends
            r = int(2.0 ** (math.log2(v) / k) * (1.0 + 1e-9)) + 1
        except OverflowError:
            r = 1 << -(-bits // k)  # 2^ceil(bits/k) > the root
        while (s := ((k - 1) * r + v // r ** (k - 1)) // k) < r:
            r = s
    # the float root or Newton is off by at most a few steps; make it exact
    power = r ** k
    while power > v:
        r -= 1
        power = r ** k
    upper = (r + 1) ** k
    while upper <= v:
        r += 1
        power, upper = upper, (r + 1) ** k
    return r, power, upper


def floor_kth_root(v: int, k: int) -> KthRootResult:
    """Largest r with r^k <= v, plus whether r^k == v exactly.

    v >= 0, k >= 1; r and r^k come from the bracket r^k <= v < (r+1)^k
    that :func:`nearest_power_distance` shares.  k == 2 delegates to
    math.isqrt.  When v has at most 45k bits the root has at most 45,
    and the double 2^(log2(v) / k) is within about 10^-14 relative of
    it, a fraction of one: its floor goes straight to the exact
    correction loops, which step r down while r^k > v and up while
    (r+1)^k <= v.  Larger roots run Newton's method on integers first,
    seeded from the same double inflated by 1e-9 relative, so the seed
    lies at or above the root and the descent is monotone (from the
    bit-length bound 2^ceil(bits/k) when the root overflows a double).
    The answer never rests on the float: the loops always end at
    r^k <= v < (r+1)^k, holding both powers.
    """
    if v < 0:
        raise ValueError("v must be >= 0, got %d" % v)
    if k < 1:
        raise ValueError("k must be >= 1, got %d" % k)
    if k == 1 or v < 2:
        return KthRootResult(root=v, exact=True)
    r, power, _ = _bracket(v, k)
    return KthRootResult(root=r, exact=power == v)


def nearest_power_distance(v: int, k: int) -> tuple[int, int]:
    """(base, distance) for the k-th power nearest to v >= 1.

    distance = min(v - r^k, (r+1)^k - v) with r = floor k-th root; ties
    resolve to the smaller base r.  Both powers come from the bracket
    that :func:`floor_kth_root` takes, so a distance costs no power
    beyond those of the root itself.  Minimizing over bases m >= 0 is
    enough even if negative m were allowed: for odd k those powers are
    <= -1, farther from v >= 1, and for even k they mirror m >= 0.
    """
    if v < 1:
        raise ValueError("v must be >= 1, got %d" % v)
    if k < 2:
        raise ValueError("k must be >= 2, got %d" % k)
    r, power, upper = _bracket(v, k)
    if v - power <= upper - v:
        return r, v - power
    return r + 1, upper - v


def _power_neighbours(
    values: Sequence[int], k: int, d_cap: int, lo: int, hi: int, bases: int
) -> Iterator[int]:
    """Each index i in lo..hi with values[i] within d_cap of some y^k,
    y = 1..bases, ascending and once.

    values[lo..hi] must be ascending; equal values are one run, and a
    window takes the whole run.  The windows rise with y, so each one
    starts where the previous one ended.  Given bases = Y =
    floor((values[hi] + d_cap)^(1/k)) the list is complete for
    values >= 1: a y^k within d_cap of values[i] has
    y^k <= values[i] + d_cap <= values[hi] + d_cap, so y <= Y, and y = 0
    is never nearer than y = 1.  The near-power sweep lists with its
    d_cap; the perfect-power scan lists with d_cap = 0 over its open
    values sorted, where Y = floor(max^(1/k)) and each index yielded is
    an exact power.
    """
    for y in range(1, bases + 1):
        power = y ** k
        start = bisect.bisect_left(values, power - d_cap, lo, hi + 1)
        lo = bisect.bisect_right(values, power + d_cap, start, hi + 1)
        yield from range(start, lo)


def _primes_up_to(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


_PRIME_CACHE: list[int] = []
_PRIME_LIMIT = 0  # _PRIME_CACHE holds every prime <= _PRIME_LIMIT


def prime_exponents_up_to(limit: int) -> list[int]:
    """Primes <= limit, cached monotonically (candidate exponents)."""
    global _PRIME_CACHE, _PRIME_LIMIT
    if limit > _PRIME_LIMIT:
        # sieve past the limit so a slowly growing limit rarely re-sieves
        _PRIME_LIMIT = max(2 * limit, 64)
        _PRIME_CACHE = _primes_up_to(_PRIME_LIMIT)
    return _PRIME_CACHE[: bisect.bisect_right(_PRIME_CACHE, limit)]


class PowerWitness(NamedTuple):
    base: int
    exponent: int


def _power_residues(q: int, m: int) -> frozenset[int]:
    if q == 2:
        return frozenset(x * x % m for x in range(m // 2 + 1))
    # m is a prime = 1 (mod q): the nonzero q-th powers are the cyclic
    # subgroup of order (m - 1)/q of the units, generated by some t^q
    order = (m - 1) // q
    for t in itertools.count(2):
        h = pow(t, q, m)
        residues = {0, 1}
        x = h
        while x != 1:
            residues.add(x)
            x = x * h % m
        if len(residues) == order + 1:
            return frozenset(residues)


@functools.cache
def _screens(q: int) -> tuple[tuple[int, frozenset[int]], ...]:
    """(modulus, q-th-power residues) pairs that every q-th power passes.

    q = 2 uses 64 and 45045 = 9*5*7*11*13, which a non-square passes
    with probability about 1/120; an odd prime q uses the two smallest
    primes m = 1 (mod q), where a non-power passes each with probability
    about 1/q.
    """
    if q == 2:
        moduli = [64, 45045]
    else:
        moduli = []
        m = 1
        while len(moduli) < 2:
            m += 2 * q  # m stays odd and = 1 (mod q)
            if all(m % f for f in range(3, math.isqrt(m) + 1, 2)):
                moduli.append(m)
    return tuple((m, _power_residues(q, m)) for m in moduli)


def is_perfect_power(v: int) -> PowerWitness | None:
    """Some (base, exponent >= 2) with base**exponent == v, else None.

    Only prime exponents up to bit_length(v) need checking: any m^(ab)
    is (m^a)^b.  0 and 1 are 0^2 and 1^2.  Returns the witness with the
    smallest prime exponent found.

    Each prime exponent q is screened before its root is taken: v must
    be a square modulo 64 and 45045 (q = 2), or a q-th-power residue
    modulo the two smallest primes l = 1 (mod q), residue 0 included.
    Every q-th power passes, so a rejected q could not have given an
    exact root; the answer is the one :func:`_is_perfect_power_oracle`
    gives, with fewer than one exact root per value on average instead
    of one per prime up to bit_length(v).
    """
    if v < 0:
        raise ValueError("v must be >= 0, got %d" % v)
    if v in (0, 1):
        return PowerWitness(base=v, exponent=2)
    for q in prime_exponents_up_to(v.bit_length()):
        for m, residues in _screens(q):
            if v % m not in residues:
                break  # v is no q-th power
        else:
            root, exact = floor_kth_root(v, q)
            if exact:
                return PowerWitness(base=root, exponent=q)
    return None


def _is_perfect_power_oracle(v: int) -> PowerWitness | None:
    """Reference for :func:`is_perfect_power`: an exact root for every
    prime exponent up to bit_length(v), no screens.  Kept for
    cross-checks only."""
    if v < 0:
        raise ValueError("v must be >= 0, got %d" % v)
    if v in (0, 1):
        return PowerWitness(base=v, exponent=2)
    for q in prime_exponents_up_to(v.bit_length()):
        root, exact = floor_kth_root(v, q)
        if exact:
            return PowerWitness(base=root, exponent=q)
    return None
