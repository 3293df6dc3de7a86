"""Exact integer k-th roots, distances to nearest perfect powers and
perfect-power detection.

All arithmetic is on arbitrary-precision ints; floats only ever seed a
root and every candidate is corrected against the exact bracket
r^k <= v < (r+1)^k.  A root of at most 45 bits (v below 2^(45k), which
covers every v below 2^53 once k >= 3) is seeded straight from a
double, which lands within one of it; a larger root, however large,
takes one seed from a double (of v less whole k-bit digits past 2^1000
in the root, so the double never overflows) and then the few Newton
steps that the double's error bound needs.  That bound is derived once,
beside _SEED_BITS, and also gives the near-power sweep's float screen
its tolerance.  One routine
takes that bracket and keeps both powers: floor_kth_root reads
exactness off r^k, and nearest_power_distance reads the distance off
r^k and (r+1)^k without taking a power of its own.

Perfect-power detection screens before it roots.  The first screen does
not depend on q: a y^q with q >= 2 holds every prime to a multiple of q,
so a prime that divides v exactly once rules out every exponent at once
(the usual first step, as in Bernstein's detection of perfect powers).
_simple_factor reads that off r = v mod P^2, P = 2*3*...*23, a
machine-word int: g = gcd(r, P) is the product of the primes up to 23
that divide v, gcd(r // g, g) of those that divide it at least twice,
and the screen fires when the two differ.  It drops three in four
partition numbers before any exponent is tried, and it passes every
power.  The screens per exponent come next.  A q-th power y^q is a
q-th-power residue modulo every m: modulo a prime l = 1 (mod q) that is
0 (when l divides y) or one of the (l - 1)/q units x with
x^((l-1)/q) = 1; modulo 64, 63, 65, 11 and odd primes from 17 a square
is one of the squares there.  A residue outside those sets proves v is
not a q-th power, so only values that pass every screen get the exact
root, and the screens can never change an answer, only skip roots that
would have failed.  Each q takes moduli until a non-power passes them
all with probability at most 1/10000, or eight of them; q = 2 stops at
eight and passes about 1 in 1,585 non-squares.  The screens are built
lazily, per exponent, and stay small: at most a few dozen residues per
modulus.  They live in one flat plan over the primes up to the largest
bit length met so far, the module's one cache: is_perfect_power walks
it, so a value pays a residue and a set lookup per prime exponent and
no call, and witnesses.perfect_power_scan reads its exponents and
screens from it.  A longer value grows the plan by the screens of the
primes it adds, found by trial division; the plan is replaced whole
when it grows, never extended in place, so a reader never sees part of
one.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
from collections.abc import Iterator, Sequence


class KthRootResult(collections.namedtuple("KthRootResult", "root exact")):
    __slots__ = ()


# The double's error.  For v >= 1 whose root z = v^(1/k) is below 2^t,
# t <= 1024, the double x = 2.0 ** (math.log2(v) / k) is within
# (ln 2 (1.5 t + 1) + 1) 2^-52 of z, relative:
#
# * math.log2 of an int rounds it to 53 bits, or past the double range
#   rounds its mantissa m in [1/2, 1) to 53 bits and returns
#   log2(m) + e, one more rounding.  Rounding v moves log2 v by at most
#   2^-53 / ln 2 < 2^-52.  The C library's log2 and pow are taken to be
#   within one ulp (2^-52 relative), an assumption the tests check by
#   measuring the whole chain against the bounds below.  So
#   L = math.log2(v) is off by at most 2^-52 (log2 v + 2).
# * L / k rounds once more, so it is off from log2 z by at most
#   2^-52 (log2 z + 2/k) + 2^-53 log2 z <= 2^-52 (1.5 t + 1).
# * 2.0 ** (L / k) multiplies z by 2^(that error) and by one more ulp.
#
# Two instances of that bound are used:
#
# * t <= 1024, the Newton seed: below 1067 * 2^-52 < 2^-41.9, and int(x)
#   truncates under 2^-45 more once x >= 2^45.  So _SEED_BITS = 41.
# * t <= 40, the near-power sweep's float screen (repulsion): below
#   (61 ln 2 + 1) 2^-52 < 44 * 2^-52 = 2^-46.5, so _SCREEN_REL = 2^-46,
#   and a root below 2^b is within 2^(b-46) of its double.
#
# Newton from the double.  A root of more than 45 bits starts from
# r = int(x), or for v of more than 1000k bits from the root of
# v >> (shift k), shift = bits // k - 1000, shifted back left: that root
# is below 2^1001, so its double does not overflow, and dropping whole
# k-bit digits moves it by under 2^-1000 relative.  Either way r has
# relative error |e| < 2^-good with good = _SEED_BITS.  One integer step
# r -> ((k-1) r + v // r^(k-1)) // k lands at or above floor(z), by
# AM-GM on k-1 copies of r and v / r^(k-1), and at most
# (k-1)/2 e^2 (1 - |e|)^(-k-1) < k e^2 relative above z, as
# (1 - |e|)^(-k-1) < 2 for any k < 2^40; below z it is off by under one.
# So each step squares the error and loses at most k.bit_length() >
# log2 k bits.  With t = ceil(bits / k), z < 2^t, so once good >= t,
# r - z < 1: r is floor(z) or one more, and no step confirms it.
_SEED_BITS = 41
_SCREEN_REL = 2.0 ** -46


def _bracket(v: int, k: int) -> tuple[int, int, int]:
    # (r, r^k, upper) with r the floor k-th root, for v >= 1 and k >= 2:
    # upper is (r+1)^k, except that at r = 1 it is at most 2^(bits+1),
    # v < 2^bits.  That power is already farther from v than 1 is, so
    # every distance read off the bracket is the same, and a huge k
    # builds no 2^k.
    if k == 2:
        r = math.isqrt(v)
        return r, r * r, (r + 1) * (r + 1)
    if (bits := v.bit_length()) <= k:
        # 2^k > v means the root is 1
        return 1, 1, 1 << min(k, bits + 1)
    if bits <= 45 * k:
        # off by well under one for a root of at most 45 bits
        r = int(2.0 ** (math.log2(v) / k))
    else:
        # a larger root: the double of v less its low whole k-bit
        # digits, so that its root stays below 2^1001, then the Newton
        # steps its error bound needs (see above).  No digit is dropped
        # below 2^1000, and v is not copied to drop none.
        if bits > 1000 * k:
            shift = bits // k - 1000
            r = int(2.0 ** (math.log2(v >> shift * k) / k)) << shift
        else:
            r = int(2.0 ** (math.log2(v) / k))
        good = _SEED_BITS
        while good * k < bits:
            r = ((k - 1) * r + v // r ** (k - 1)) // k
            good = 2 * good - k.bit_length()
    # the float root or Newton is off by at most one step; make it exact
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
    from the same double, off by under 2^-41 relative; past 2^1000 the
    double is taken of v with its low whole k-bit digits dropped and
    shifted back, so it never overflows.  Each step squares that error
    less log2 k bits, and the steps stop once it is below one unit of
    the root, so r is the floor root or one more and no step confirms
    it.  The answer never rests on the float: the loops always end at
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
    d_cap; the perfect-power scan lists with d_cap = 0 over the table's
    own suffix of open values, where Y = floor(p(n_hi)^(1/k)) and each
    index yielded is an exact power.
    """
    for y in range(1, bases + 1):
        power = y ** k
        start = bisect.bisect_left(values, power - d_cap, lo, hi + 1)
        lo = bisect.bisect_right(values, power + d_cap, start, hi + 1)
        yield from range(start, lo)


def _is_prime(m: int) -> bool:
    # trial division by 2 and the odd numbers up to sqrt(m), for the
    # plan's exponents, the oracle's and the screens' moduli
    if m % 2 == 0:
        return m == 2
    return m > 1 and all(m % f for f in range(3, math.isqrt(m) + 1, 2))


class PowerWitness(collections.namedtuple("PowerWitness", "base exponent")):
    __slots__ = ()


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


# An odd prime q is screened modulo primes l = 1 (mod q), ascending,
# and q = 2 modulo the odd primes from 17 after its first four moduli.
# Modulo such an l the q-th powers are 0 and (l - 1)/q units, so a
# value that is no q-th power passes with probability about
# ((l - 1)/q + 1)/l, and by the CRT the moduli pass it independently.
# Moduli are added until that product is at most 1/_SCREEN_TARGET, or
# until there are _SCREEN_MODULI of them: q = 2 and 3 stop at the cap
# (q = 2 at 29, about 1/1585; q = 3 at 7..67, about 1/3200) and q = 5 at
# the target (7 moduli, 11..131).  Each modulus costs one residue of a
# survivor and saves most of the exact roots: at n_max 25000 the scan
# takes 151, where four moduli for q = 2 left 397 and two per odd q
# 8,992.
_SCREEN_TARGET = 10_000
_SCREEN_MODULI = 8


def _screens(q: int) -> tuple[tuple[int, frozenset[int]], ...]:
    """(modulus, q-th-power residues) pairs that every q-th power passes.

    q = 2 starts from 64, 63 = 9*7, 65 = 5*13 and 11, which a non-square
    passes with probability about 1/119: the prime powers of
    45045 = 9*5*7*11*13, so the same rate by the CRT, from 104 squarings
    where 45045 itself takes 22,523.  It goes on with the odd primes
    from 17, as an odd prime q goes on with the primes l = 1 (mod q)
    from the smallest: moduli are added, ascending, until their pass
    rates multiply to at most 1/_SCREEN_TARGET or there are
    _SCREEN_MODULI of them.  A prime l passes (l - 1)/q + 1 of its l
    residues.  So q = 2 screens modulo 64, 63, 65, 11, 17, 19, 23 and
    29, and passes about 1 non-square in 1,585.  Not cached: the plan
    reads each q's screens once, when it first reaches q.
    """
    moduli, m, step = ([64, 63, 65, 11], 15, 2) if q == 2 else ([], 1, 2 * q)
    # the product of the pass rates, passed/total
    passed = math.prod(len(_power_residues(q, first)) for first in moduli)
    total = math.prod(moduli)
    while len(moduli) < _SCREEN_MODULI and passed * _SCREEN_TARGET > total:
        m += step  # m stays odd, and = 1 (mod q) for an odd q
        if _is_prime(m):
            moduli.append(m)
            passed *= (m - 1) // q + 1
            total *= m
    return tuple((m, _power_residues(q, m)) for m in moduli)


# The screen plan, the module's one cache: (bits, steps), where steps
# holds (q, first modulus, its residues, the later (modulus, residues)
# pairs) for every prime q <= bits, ascending, read off _screens(q).
# is_perfect_power and witnesses.perfect_power_scan both walk it.  A
# growth builds a new tuple and rebinds the name, never extends one in
# place, so two interleaved growers can at worst publish the smaller of
# two whole plans, never one with an exponent missing or out of place;
# each grower walks the plan it built, which covers its own bits.
_PLAN: tuple[int, tuple[tuple, ...]] = (0, ())


def _grow_plan(bits: int) -> tuple[int, tuple[tuple, ...]]:
    global _PLAN
    covered, steps = plan = _PLAN
    if covered < bits:
        # only the primes the plan lacks get their screens built
        added = []
        for q in filter(_is_prime, range(covered + 1, bits + 1)):
            (m, residues), *rest = _screens(q)
            added.append((q, m, residues, tuple(rest)))
        plan = _PLAN = (bits, steps + tuple(added))
    return plan


# The multiplicity screen.  P = 2*3*5*...*23 = 223092870 and P^2 < 2^56,
# so r = v mod P^2 is a machine-word int.  For a prime p | P, p divides
# v exactly when it divides r, and p^2 divides v exactly when it divides
# r, as p^2 | P^2.  P is squarefree, so g = gcd(r, P) is the product of
# the small primes that divide v, and each of them divides g once: p
# divides r // g exactly when p^2 divides r.  So gcd(r // g, g) is the
# product of those that divide v at least twice.  For r = 0 both are P,
# as every p^2 divides v.  A y^q with q >= 2 holds every prime to a
# multiple of q, so no prime divides it only once.
_SMALL_PRIMORIAL = 223092870  # 2*3*5*7*11*13*17*19*23
_SMALL_PRIMORIAL_SQUARED = _SMALL_PRIMORIAL * _SMALL_PRIMORIAL


def _simple_factor(v: int) -> bool:
    """Whether some prime up to 23 divides v >= 0 exactly once, which
    rules out v = y^q for every q >= 2 at once."""
    r = v % _SMALL_PRIMORIAL_SQUARED
    g = math.gcd(r, _SMALL_PRIMORIAL)
    return g != math.gcd(r // g, g)


def is_perfect_power(v: int) -> PowerWitness | None:
    """Some (base, exponent >= 2) with base**exponent == v, else None.

    Only prime exponents up to bit_length(v) need checking: any m^(ab)
    is (m^a)^b.  0 and 1 are 0^2 and 1^2.  Returns the witness with the
    smallest prime exponent found.

    Before any exponent, one screen that does not depend on q:
    :func:`_simple_factor` reads v mod (2*3*...*23)^2 and two gcds, and
    when some prime up to 23 divides v exactly once, v is no y^q for any
    q >= 2, and the answer is None.  It drops three in four partition
    numbers before the plan is grown or walked.

    Each prime exponent q is screened before its root is taken: v must
    be a square modulo 64, 63, 65, 11, 17, 19, 23 and 29 (q = 2), or a
    q-th-power residue, 0 included, modulo each prime l = 1 (mod q)
    that :func:`_screens` picks for q (up to eight of the smallest).  Every
    q-th power passes, so a rejected q could not have given an exact
    root; the answer is the one :func:`_is_perfect_power_oracle` gives,
    with far fewer than one exact root per value on average instead of
    one per prime up to bit_length(v).

    The screens are walked from one flat plan, a tuple over the primes
    ascending of (q, first modulus, its residues, the later moduli), so
    a q costs a residue and a set lookup, and the later moduli only
    when v passes the first.  The plan holds every prime up to the
    largest bit length met so far; a longer v adds the primes past it up
    to its own bit length, each with the screens :func:`_screens` builds
    for it, and publishes the plan whole.  The walk stops at the first
    q > bit_length(v).
    """
    if v < 0:
        raise ValueError("v must be >= 0, got %d" % v)
    if v in (0, 1):
        return PowerWitness(base=v, exponent=2)
    if _simple_factor(v):
        return None
    bits = v.bit_length()
    plan = _PLAN
    if plan[0] < bits:
        plan = _grow_plan(bits)
    for q, m, residues, rest in plan[1]:
        if q > bits:
            break
        if v % m in residues:
            for m, residues in rest:
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
    for q in filter(_is_prime, range(2, v.bit_length() + 1)):
        root, exact = floor_kth_root(v, q)
        if exact:
            return PowerWitness(base=root, exponent=q)
    return None
