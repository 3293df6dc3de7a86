import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partgap.roots
from partgap.roots import (
    _SCREEN_MODULI,
    _SCREEN_TARGET,
    _SEED_BITS,
    _bracket,
    _grow_plan,
    _is_perfect_power_oracle,
    _is_prime,
    _power_neighbours,
    _screens,
    floor_kth_root,
    is_perfect_power,
    nearest_power_distance,
)


def sieve_primes(limit):
    # the primes <= limit by the sieve of Eratosthenes, sharing nothing
    # with roots.py, whose one prime test feeds the plan and the oracle
    composite = [False] * (limit + 1)
    for i in range(2, math.isqrt(limit) + 1):
        if not composite[i]:
            for j in range(i * i, limit + 1, i):
                composite[j] = True
    return [i for i in range(2, limit + 1) if not composite[i]]


PRIMES_TO_200 = sieve_primes(200)


def brute_floor_root(v, k):
    r = 0
    while (r + 1) ** k <= v:
        r += 1
    return r


def test_floor_root_small_exhaustive():
    for k in range(1, 9):
        r = 0
        nxt = 1
        for v in range(0, 3001):
            if v == nxt:
                r += 1
                nxt = (r + 1) ** k
            got = floor_kth_root(v, k)
            assert got.root == r
            assert got.exact == (r**k == v)


def test_floor_root_rejects_bad_args():
    with pytest.raises(ValueError):
        floor_kth_root(5, 0)
    with pytest.raises(ValueError):
        floor_kth_root(-1, 2)


def test_floor_root_exact_powers():
    for base in (2, 3, 10, 12345, 10**20 + 7):
        for k in (2, 3, 7, 31, 97):
            got = floor_kth_root(base**k, k)
            assert got.root == base and got.exact
            below = floor_kth_root(base**k - 1, k)
            assert below.root == base - 1 and not below.exact


def test_floor_root_near_10_to_300():
    v = 10**300
    for k in (2, 3, 7, 64, 128):
        r = floor_kth_root(v, k).root
        assert r**k <= v < (r + 1) ** k
    assert floor_kth_root(10**300, 3) == (10**100, True)
    assert floor_kth_root(10**300 - 1, 3) == (10**100 - 1, False)
    # a root past float range: Newton starts from 2^ceil(bits/k)
    y = (1 << 1100) + 3
    assert floor_kth_root(y**3, 3) == (y, True)
    assert floor_kth_root(y**3 - 1, 3) == (y - 1, False)


@given(
    st.integers(min_value=0, max_value=10**200),
    st.integers(min_value=1, max_value=128),
)
@settings(max_examples=300, deadline=None)
def test_floor_root_sandwich(v, k):
    got = floor_kth_root(v, k)
    assert got.root**k <= v < (got.root + 1) ** k
    assert got.exact == (got.root**k == v)


def brute_nearest(v, k):
    best_base, best_dist = 0, v
    m = 0
    while True:
        d = abs(v - m**k)
        if d < best_dist:
            best_base, best_dist = m, d
        if m**k >= v:
            return best_base, best_dist
        m += 1


def test_nearest_power_exhaustive():
    for k in range(2, 21):
        for v in range(1, 2001):
            assert nearest_power_distance(v, k) == brute_nearest(v, k)
    # y^k and y^k +- 1 on both sides of 2^53, where doubles stop being exact;
    # the next power is far away, so y is nearest at distance |step|
    for k in range(3, 8):
        y = floor_kth_root((1 << 53) - 1, k).root
        for base in (y, y + 1):
            for step in (-1, 0, 1):
                assert nearest_power_distance(base**k + step, k) == (base, abs(step))


def test_nearest_power_rejects_bad_args():
    with pytest.raises(ValueError):
        nearest_power_distance(0, 2)
    with pytest.raises(ValueError):
        nearest_power_distance(5, 1)


def test_huge_k_builds_no_kth_power():
    # below 2^k the root is 1 and the distance v - 1; the bracket must
    # not build 2^k to say so, which at k = 10^8 would take 12 MiB a copy
    tracemalloc.start()
    try:
        assert nearest_power_distance(10, 10**8) == (1, 9)
        assert floor_kth_root(10, 10**8) == (1, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@given(
    st.integers(min_value=1, max_value=10**120),
    st.integers(min_value=2, max_value=96),
)
@settings(max_examples=200, deadline=None)
def test_nearest_power_is_locally_optimal(v, k):
    base, dist = nearest_power_distance(v, k)
    assert dist == abs(v - base**k)
    assert dist <= abs(v - (base + 1) ** k)
    if base >= 1:
        # a tie with base - 1 would have returned base - 1 instead
        assert dist < abs(v - (base - 1) ** k)
    down = floor_kth_root(v, k).root
    assert base in (down, down + 1)


def test_delta_record_fields(table_small):
    assert nearest_power_distance(table_small.p(30), 2) == (75, 21)
    assert nearest_power_distance(table_small.p(1), 2)[1] == 0


def brute_perfect_power(v):
    if v in (0, 1):
        return True
    for e in range(2, v.bit_length() + 1):
        r = floor_kth_root(v, e)
        if r.exact and r.root >= 2:
            return True
    return False


def test_perfect_power_exhaustive():
    for v in range(0, 20001):
        w = is_perfect_power(v)
        if brute_perfect_power(v):
            assert w is not None
            assert w.base**w.exponent == v
        else:
            assert w is None


def test_perfect_power_degenerates():
    assert is_perfect_power(0) == (0, 2)
    assert is_perfect_power(1) == (1, 2)
    assert is_perfect_power(2) is None


@given(
    st.integers(min_value=2, max_value=10**30),
    st.integers(min_value=2, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_perfect_power_finds_constructed(m, e):
    w = is_perfect_power(m**e)
    assert w is not None
    assert w.base**w.exponent == m**e


def test_is_prime_matches_a_sieve():
    assert list(filter(_is_prime, range(5001))) == sieve_primes(5000)


def test_prime_exponents(monkeypatch):
    # a plan grown from none lists every prime up to its bits
    monkeypatch.setattr(partgap.roots, "_PLAN", (0, ()))
    for bits in (1, 12, 200):
        _grow_plan(bits)
        assert plan_exponents() == (bits, sieve_primes(bits))
    assert plan_exponents()[1][:5] == [2, 3, 5, 7, 11]


def test_prime_exponents_grow_and_shrink(monkeypatch):
    # a plan never shrinks: a shorter value walks the longer plan up to
    # its own bit length
    monkeypatch.setattr(partgap.roots, "_PLAN", (0, ()))
    assert is_perfect_power(2**599) == (2, 599)
    assert plan_exponents() == (600, sieve_primes(600))
    assert is_perfect_power(3**283) == (3, 283)
    assert is_perfect_power(2**283 + 1) is None
    assert _grow_plan(2) is partgap.roots._PLAN
    assert plan_exponents() == (600, sieve_primes(600))


def bisection_root(v, k):
    # floor k-th root by integer bisection, sharing nothing with roots.py
    lo, hi = 0, 1 << (v.bit_length() // k + 1)  # lo^k <= v < hi^k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= v:
            lo = mid
        else:
            hi = mid
    return lo


def assert_root_and_distance(v, k):
    r = bisection_root(v, k)
    assert floor_kth_root(v, k) == (r, r**k == v)
    if v >= 1:
        below, above = v - r**k, (r + 1) ** k - v
        want = (r, below) if below <= above else (r + 1, above)
        assert nearest_power_distance(v, k) == want


def test_roots_at_the_float_seed_switch():
    # a double seeds roots of up to 45 bits and Newton the rest, so
    # (2^45 - 1)^k has 45k bits and 2^(45k) has 45k + 1; random values
    # of those two lengths too
    rng = random.Random(45)
    for k in range(3, 65):
        for y in ((1 << 45) - 1, 1 << 45):
            assert (y**k).bit_length() == 45 * k + (y == 1 << 45)
            for step in (-1, 0, 1):
                assert_root_and_distance(y**k + step, k)
        for bits in (45 * k, 45 * k + 1):
            for _ in range(5):
                assert_root_and_distance(rng.getrandbits(bits - 1) | 1 << (bits - 1), k)


def test_roots_at_the_double_overflow():
    # roots on both sides of 2^1000 and of 2^1024: up to 1000k bits of v
    # the seed is the double of v, past that the double of v with its
    # low whole k-bit digits dropped, so no root overflows the double
    for k in (3, 5, 13):
        for y in ((1 << 1000) - 1, 1 << 1000, (1 << 1000) + 1,
                  (1 << 1024) - 2, (1 << 1024) - 1, 1 << 1024, (1 << 1024) + 1):
            for step in (-1, 0, 1):
                assert_root_and_distance(y**k + step, k)


@given(
    st.integers(min_value=0, max_value=10**1000),
    st.integers(min_value=3, max_value=128),
)
@settings(max_examples=300, deadline=None)
def test_roots_match_bisection(v, k):
    assert_root_and_distance(v, k)


def newton_seed(v, k):
    # the seed of a root above 45 bits, as _bracket takes it
    bits = v.bit_length()
    shift = max(bits // k - 1000, 0)
    return int(2.0 ** (math.log2(v >> shift * k) / k)) << shift


def near_power(rng, k, root_bits):
    # y^k, y^k +- 1 or y^k plus up to y^(k-1), for a random y of root_bits bits
    y = rng.getrandbits(root_bits) | 1 << (root_bits - 1)
    return y**k + rng.choice((0, 1, -1, rng.getrandbits(y.bit_length() * (k - 1))))


def test_newton_seed_error_within_derived_bound():
    # the seed r against z = v^(1/k), for roots of 46 to 5000 bits, from
    # the double of v or, past 1000k bits, of v less whole k-bit digits:
    # |r - z| < 2^-_SEED_BITS z, that is
    # v (2^s - 1)^k < (r 2^s)^k < v (2^s + 1)^k, in integers
    rng = random.Random(41)
    s = _SEED_BITS
    for count, top in ((3000, 1024), (300, 5001)):
        for _ in range(count):
            k = rng.randrange(3, 40)
            v = near_power(rng, k, rng.randrange(46, top))
            r = newton_seed(v, k)
            assert v * ((1 << s) - 1) ** k < (r << s) ** k < v * ((1 << s) + 1) ** k


class CountedExponent(int):
    # an exponent k that counts the powers base ** k taken with it: the
    # bracket takes r^k and (r+1)^k, and one more per correction step
    powers = 0

    def __rpow__(self, base, mod=None):
        self.powers += 1
        assert self.powers <= 4, "more than two correction steps"
        return pow(base, int(self), mod)


def test_newton_leaves_at_most_two_correction_steps():
    # every root above 45 bits, below 2^1024 or past it, ends its Newton
    # steps within one step of the floor root
    rng = random.Random(1024)
    for count, top in ((2000, 1060), (200, 5001)):
        for _ in range(count):
            k = rng.randrange(3, 40)
            v = near_power(rng, k, rng.randrange(46, top))
            assert v.bit_length() > 45 * k
            r, power, upper = _bracket(v, CountedExponent(k))
            assert power == r**k <= v < (r + 1) ** k == upper


class CountedValue(int):
    # a value v that counts the divisions v // r^(k-1), one per Newton step
    divisions = 0

    def __floordiv__(self, other):
        self.divisions += 1
        return int(self) // other


@pytest.mark.parametrize(
    "bits, k, steps",
    # good = 41, then 2 good - k.bit_length() per step until good k >= bits
    [(3500, 3, 5), (6000, 5, 5), (9000, 8, 5), (12000, 7, 6), (40000, 11, 7)],
)
def test_root_past_the_double_takes_the_scheduled_steps(bits, k, steps):
    # roots past 2^1024 start from the same error bound as the rest, so
    # they take exactly the scheduled Newton steps, and no descent
    rng = random.Random(bits)
    for _ in range(5):
        v = CountedValue(rng.getrandbits(bits) | 1 << (bits - 1))
        r, power, upper = _bracket(v, k)
        assert v.divisions == steps
        assert power == r**k <= v < upper == (r + 1) ** k


def test_floor_root_float_edge():
    # the sandwich on both sides of 2^53, where a double stops being exact
    top = 1 << 53
    for k in range(3, 60):
        r = floor_kth_root(top - 1, k).root
        for v in (r**k - 1, r**k, r**k + 1, (r + 1) ** k - 1, (r + 1) ** k,
                  top - 1, top, top + 1):
            got = floor_kth_root(v, k)
            assert got.root**k <= v < (got.root + 1) ** k
            assert got.exact == (got.root**k == v)


def is_prime(m):
    return m > 1 and all(m % f for f in range(2, math.isqrt(m) + 1))


KNOWN_MODULI = {
    # 64 and the prime powers of 45045 = 9*5*7*11*13, then the odd
    # primes from 17 up to the cap
    2: [64, 63, 65, 11, 17, 19, 23, 29],
    3: [7, 13, 19, 31, 37, 43, 61, 67],  # stopped by the cap
    5: [11, 31, 41, 61, 71, 101, 131],  # stopped by the target
}


@pytest.mark.parametrize("q", PRIMES_TO_200)
def test_screen_residues_are_exactly_the_powers(q):
    # sound: every x^q mod m is accepted; tight: nothing else is
    screens = _screens(q)
    for m, residues in screens:
        assert residues == frozenset(pow(x, q, m) for x in range(m))
    moduli = [m for m, _ in screens]
    assert moduli == KNOWN_MODULI.get(q, moduli)
    # q = 2 starts from four fixed moduli, then takes the odd primes
    # from 17; an odd q takes the smallest primes = 1 (mod q); both
    # ascending, with no gap
    start = 4 if q == 2 else 0
    first = 17 if q == 2 else q + 1
    assert moduli[start:] == [
        m for m in range(first, moduli[-1] + 1) if m % q == 1 and is_prime(m)
    ]

    def met(count):
        # the pass rates of the first count moduli multiply to at most
        # 1/_SCREEN_TARGET, or count reached the cap
        passed = math.prod(len(residues) for _, residues in screens[:count])
        return count == _SCREEN_MODULI or passed * _SCREEN_TARGET <= math.prod(moduli[:count])

    assert met(len(moduli))
    assert not any(met(count) for count in range(start, len(moduli)))


@given(
    st.integers(min_value=2, max_value=10**6),
    st.sampled_from(PRIMES_TO_200),
    st.sampled_from((-1, 0, 1)),
)
@settings(max_examples=300, deadline=None)
def test_screened_power_test_matches_oracle_near_powers(y, q, step):
    v = y**q + step
    w = is_perfect_power(v)
    assert w == _is_perfect_power_oracle(v)
    if step == 0:
        assert w is not None and w.base**w.exponent == v


@given(
    st.sampled_from((3, 5, 7, 11, 13)),
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=1, max_value=10**12),
)
@settings(max_examples=300, deadline=None)
def test_screened_power_test_matches_oracle_past_the_first_two_moduli(q, y, j):
    # v = y^q modulo q's first two moduli, so only the later ones can
    # reject it
    (m1, _), (m2, _) = _screens(q)[:2]
    v = y**q + m1 * m2 * j
    assert is_perfect_power(v) == _is_perfect_power_oracle(v)


@given(
    st.sampled_from(PRIMES_TO_200),
    st.data(),
    st.integers(min_value=1, max_value=10**30),
    st.integers(min_value=1, max_value=20),
)
@settings(max_examples=300, deadline=None)
def test_screened_power_test_matches_oracle_at_residue_zero(q, data, c, e):
    # multiples and powers of a screen modulus have residue 0 there
    screens = _screens(q)
    m = screens[data.draw(st.integers(min_value=0, max_value=len(screens) - 1))][0]
    for v in (m * c, (m * c) ** e, (m * c) ** q):
        assert v % m == 0
        assert is_perfect_power(v) == _is_perfect_power_oracle(v)


def plan_exponents():
    covered, steps = partgap.roots._PLAN
    return covered, [q for q, *_ in steps]


def test_plan_holds_every_prime_up_to_its_bits(monkeypatch):
    # from no plan, ascending: 2^q has bit length q + 1, so each q is
    # read at the edge of some plan, among them the last prime of one
    monkeypatch.setattr(partgap.roots, "_PLAN", (0, ()))
    for q in PRIMES_TO_200:
        assert is_perfect_power(2**q) == (2, q)
        for v in (2**q - 1, 2**q + 1):
            assert is_perfect_power(v) == _is_perfect_power_oracle(v)
        covered, exponents = plan_exponents()
        assert exponents == sieve_primes(covered)
        assert covered >= q + 1


@pytest.mark.parametrize("small", [2, 10**6 + 3, 3**40])
def test_power_test_matches_oracle_across_a_plan_growth(monkeypatch, small):
    # a small value builds a short plan; y^q with q past its primes grows it
    monkeypatch.setattr(partgap.roots, "_PLAN", (0, ()))
    assert is_perfect_power(small) == _is_perfect_power_oracle(small)
    covered, _ = plan_exponents()
    q = sieve_primes(2 * covered)[-1]
    assert q > covered
    for v in (3**q, 3**q - 1, 3**q + 1, 6**q, small):
        assert is_perfect_power(v) == _is_perfect_power_oracle(v)
    assert is_perfect_power(3**q) == (3, q)
    covered, exponents = plan_exponents()
    assert exponents == sieve_primes(covered)


def test_interleaved_plan_growths_publish_a_whole_plan(monkeypatch):
    # a growth that starts another (a re-entrant call, as a second thread
    # could) part way through must leave a plan with every prime up to
    # its bits, once and in order
    monkeypatch.setattr(partgap.roots, "_PLAN", (0, ()))
    assert is_perfect_power(2**41) == (2, 41)
    covered, _ = plan_exponents()
    screens = partgap.roots._screens
    inner = []

    def reentrant(q):
        if q > covered and not inner:
            inner.append(None)  # before the call, which grows again
            inner[0] = is_perfect_power(7**523)
        return screens(q)

    monkeypatch.setattr(partgap.roots, "_screens", reentrant)
    assert is_perfect_power(5**67) == (5, 67)
    assert inner == [(7, 523)]
    covered, exponents = plan_exponents()
    assert exponents == sieve_primes(covered)
    for q in (67, 131, 523, 1031):
        if q <= covered:
            assert is_perfect_power(2**q) == (2, q)
    assert is_perfect_power(7**523) == (7, 523)


def test_screened_power_test_below_the_modulus():
    # every v below the largest screen modulus of the small exponents,
    # and at least below 45045, whose residues the q = 2 moduli 63, 65
    # and 11 split by the CRT
    top = max(45045, *(m for q in sieve_primes(40) for m, _ in _screens(q)))
    for v in range(0, top):
        assert is_perfect_power(v) == _is_perfect_power_oracle(v)


def exact_power_runs():
    # ascending, with runs of equal powers and of equal non-powers
    values = [2, 2, 3, 5, 5, 5, 7, 10, 10]
    for k in (2, 3, 5):
        for y in (1, 2, 3, 4, 7, 10):
            values += [y**k] * random.Random(y * k).randint(1, 3) + [y**k + 1]
    return sorted(values)


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_power_neighbours_at_zero_cap_yields_each_equal_run_once(k):
    values = exact_power_runs()
    top = len(values) - 1
    # windows that start or end inside a run, and a single index
    for lo, hi in [(0, top), (1, top), (0, top - 1), (5, 30), (12, 12), (9, 40)]:
        for bases in (floor_kth_root(values[hi], k).root, 3):
            got = list(_power_neighbours(values, k, 0, lo, hi, bases))
            powers = {y**k for y in range(1, bases + 1)}
            assert got == [i for i in range(lo, hi + 1) if values[i] in powers]
