"""Low-level helpers for truncated polynomial arithmetic over Z/p^N.

Coefficient vectors are plain int lists reduced modulo a power of p; the
series class `iwadist.IwaSeries` wraps them with context and precision
bookkeeping.  Multiplication is one Kronecker product: both vectors are
packed into one int each and multiplied once; polynomials with few nonzero
(exponent, coefficient) terms instead multiply pair by pair (`sparse_mul`).
There is one substitution kernel, `taylor_shift_terms`: f(a + bX) mod
(m, X^n) for a linear a + bX and every f of a list, given by its terms, on
one plan that the list shares; `taylor_shift` hands it the terms of one
dense vector.  It is a tree of packed merges over leaves built from the
terms alone: one streamed walk of the rows (a + bX)^r, folded mod m when
their slots would pass a bound R, adds each term to its block, so a
sparse input, such as a log-matrix corner, can take leaves of half its
length and a single merge (`WALK_WIDTH`); long vectors merge by two-point
Kronecker products.  The twists X -> u^j (1+X) - 1 call it directly; the
(1+X)-power basis changes, and with them the Mellin transform, are its
shift X -> X+1 (or X -> X-1), and Frobenius is Y -> Y^p between two of
them.  Nothing is cached, and the walk keeps no table of rows.  The
(1+X)-power basis transforms are exact unipotent integer maps, which is
what makes the finite-level Mellin transform invertible (and keeps the
p-content of a vector, which `logmat` strips before the shift).
Truncation mod X^cap of a vector held in that basis is one division by
(Y-1)^cap, Y = 1+X (`onepx_rem`), with no basis change.

Division by a polynomial with a unit leading coefficient (`poly_divmod_top`)
also runs on that multiply: the quotient is one product with the inverse of
the reversed divisor, built by Newton doubling (`series_inverse`), and the
remainder one more (`divmod_held`, which also serves a caller that holds a
fixed divisor with its inverse as a `HeldDivisor`).  Short divisors and
quotients keep the schoolbook loop.

The product, the shift and the held division all read their packed slots
back mod m through one helper, `_slots_mod`.

The elementary number theory the package needs around that core -- primality,
the Jacobi symbol, square roots modulo a prime and the cyclotomic
polynomials -- lives at the end of this module, on ints only (Cohen, "A
Course in Computational Algebraic Number Theory", 1.4-1.5 and 8.2), with the
one exact division over Z, by a monic polynomial (`monic_divmod`).
"""

from __future__ import annotations

import math
import sys


def pascal_rows(n, modulus):
    """Rows 0..n-1 of Pascal's triangle reduced mod modulus.

    Nothing in the package calls it; the benchmark's tracer
    (perfbench/tracer.py) wraps it by name, so it stays until that list
    changes.
    """
    rows = [[1]]
    for i in range(1, n):
        prev = rows[-1]
        row = [1] * (i + 1)
        for j in range(1, i):
            row[j] = (prev[j - 1] + prev[j]) % modulus
        rows.append(row)
    return rows


def _vp(n, p, cap):
    """p-adic valuation of the integer n, capped at cap (returns cap for 0)."""
    if n == 0:
        return cap
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


def vec_add(xs, ys, m):
    """xs + ys mod m, every entry reduced; the shorter input is zero-padded."""
    if len(xs) < len(ys):
        xs, ys = ys, xs
    return [(x + y) % m for x, y in zip(xs, ys + [0] * (len(xs) - len(ys)))]


def vec_neg(xs, m):
    return [(-x) % m for x in xs]


def vec_scale(xs, c, m):
    return [(x * c) % m for x in xs]


def vec_mul(xs, ys, m, cap):
    """Convolution mod m truncated to degree < cap, by Kronecker substitution.

    The reduced inputs are packed into one int each at a slot of
    2 bits(m) + bits(min length) bits, which no product coefficient can
    overflow; one bigint multiply then gives every coefficient at once.
    """
    n = min(cap, len(xs) + len(ys) - 1 if xs and ys else 0)
    if n <= 0:
        return []
    xs = vec_trim([x % m for x in xs[:n]])
    ys = vec_trim([y % m for y in ys[:n]])
    if not xs or not ys:
        return [0] * n
    if len(xs) == 1 or len(ys) == 1:
        # a constant factor is a scale: nothing to pack
        c, v = (xs[0], ys) if len(xs) == 1 else (ys[0], xs)
        return [c * y % m for y in v] + [0] * (n - len(v))
    k = _slot_bytes(m, m, min(len(xs), len(ys)))
    a = _pack(xs, k)
    b = a if xs == ys else _pack(ys, k)
    r = len(xs) + len(ys) - 1
    return _slots_mod(a * b, k, min(n, r), m) + [0] * (n - r)


def sparse_mul(xs, ys, m):
    """The product of two polynomials given by their nonzero (exponent,
    coefficient) terms, as its nonzero terms mod m, in no set order.

    For factors that are mostly zeros, such as phi^i(c) in Y with its
    nonzeros p^i apart, summing the pairs of terms costs less than packing
    every zero into `vec_mul`'s product.
    """
    out = {}
    for i, x in xs:
        for j, y in ys:
            out[i + j] = out.get(i + j, 0) + x * y
    return [(e, r) for e, c in out.items() if (r := c % m)]


def vec_trim(xs):
    """xs without its trailing zeros."""
    return xs[:trimmed_len(xs, len(xs))]


def trimmed_len(xs, n):
    """The length of xs[:n] without its trailing zeros.

    Whole chunks of zeros are skipped by `any`, at C speed; the last run
    shorter than a chunk goes one step at a time.
    """
    while n >= 64 and not any(xs[n - 64:n]):
        n -= 64
    while n and xs[n - 1] == 0:
        n -= 1
    return n


def _slot_folds(m, k, size, t):
    """The folds that take every k-byte slot of a size-slot int from below
    2^(8k) to at most 2^t, mod m, for t >= bits(m) + 3, as (b, h, 2^h mod
    m, mask of the low h bits of each slot, mask of the low 8k - h bits of
    each slot), with 2^b the bound after the fold.

    A slot v < 2^c folds to (v >> h) (2^h mod m) + (v mod 2^h)
    < 2^(c - h + bits(m)) + 2^h, which is at most 2^(h+1) when
    2 (h + 1) >= c + bits(m) + 2.
    """
    bm = m.bit_length()
    b = 8 * k
    # 1 in each slot: a mask of the low j bits of each slot is (2^j - 1) ones
    ones = int.from_bytes((1).to_bytes(k, "little") * size, "little")
    out = []
    while b > t:
        b = (b + bm + 3) // 2
        h = b - 1
        out.append((b, h, (1 << h) % m, ((1 << h) - 1) * ones,
                    ((1 << 8 * k - h) - 1) * ones))
    return out


def _halves(x, k, slots):
    """The even- and the odd-index k-byte slots of x, which has `slots` of
    them, each packed into one int."""
    buf = x.to_bytes(k * (slots + (slots & 1)), "little")
    ev, od = bytearray(len(buf) // 2), bytearray(len(buf) // 2)
    for j in range(k):
        ev[j::k] = buf[j::2 * k]
        od[j::k] = buf[k + j::2 * k]
    return int.from_bytes(ev, "little"), int.from_bytes(od, "little")


# When `_slots_mod` gathers, set by timing it against the per-slot read
# (Python 3.11, a 2-vCPU x86-64 VM) at 32-729 slots mod 2^23 to 2^60: the
# gather reads a slot in about a third of the time, after about 4 us, and
# each fold below 2^64 costs about a fifth of a slot read.  With no fold it
# took 1.03 of the time at 32 slots and 0.83 at 48; with 1, 2 and 3 folds
# 0.85, 0.89-0.97 and 0.91-0.98 at 64, 128 and 243 slots; with 4 or more
# folds (bits(m) >= 53) 1.09-1.94 at every length.  So it runs from
# GATHER_MIN slots, twice that for each fold, up to GATHER_FOLDS folds.
GATHER_MIN = 32
GATHER_FOLDS = 3
# where byte j of a little-endian 8-byte word sits in a native one
_NATIVE_BYTES = range(8) if sys.byteorder == "little" else range(7, -1, -1)


def _slots_mod(x, k, n, m):
    """The lowest n k-byte slots of x, each reduced mod m: the unpack of
    every packed product, shift and held division.

    Where the slots fold below 2^64 (`_slot_folds`; bits(m) + 3 <= 64) in
    f <= GATHER_FOLDS folds and n >= GATHER_MIN 2^f, they are folded, the
    low 8 bytes of each are gathered into a native 8-byte word by 8 strided
    slices (as `_halves` splits slots), and one memoryview cast reads the
    words.  Otherwise each slot is read by its own int.from_bytes.
    """
    if x.bit_length() > 8 * k * n:
        x &= (1 << 8 * k * n) - 1
    b, f = 8 * k, 0
    if n >= GATHER_MIN:
        bm = m.bit_length()
        while b > 64 and f <= GATHER_FOLDS:
            b = (b + bm + 3) // 2
            f += 1
    if b <= 64 and n >= GATHER_MIN << f:
        for _, h, c, lo, hi in _slot_folds(m, k, n, 64):
            x = (x & lo) + (x >> h & hi) * c
        buf = x.to_bytes(k * n, "little")
        words = bytearray(8 * n)
        for j, at in zip(range(k), _NATIVE_BYTES):
            words[at::8] = buf[j::k]
        return [v % m for v in memoryview(words).cast("Q")]
    buf = x.to_bytes(k * n, "little")
    unpack = int.from_bytes
    return [unpack(buf[i:i + k], "little") % m for i in range(0, k * n, k)]


# Length from which the level loop of `taylor_shift_terms` merges by
# two-point products, with two or more levels left.  Set by timing both ways
# (Python 3.11, a 2-vCPU x86-64 VM) on dense vectors mod about 2^26 and
# 2^40, for the shift (1, 1) and a twist's (c - 1, c): the two-point tree
# took 1.02-1.12 of the time at 96-128 coefficients, about 1.00 at 160 and
# 0.95-1.00 from 176 to 256; for one merge, one point was as fast.  Neither
# benchmark workload reaches a two-point merge, but `halflog` at p=3 level
# >= 6 and p=5 level >= 4, `logmatrix --p 3 --k 2 --level 5` and `check
# --suite cyclotomic-identities` do: with the merges off they ran 1.04-1.13
# times as long end to end (15 paired in-process runs each).
TWO_POINT_MIN = 192
# Widest leaf of the walk, by timing the log-matrix Mellin reads at p=3
# n=6-8, p=5 n=4-5 and p=7 n=3-4 (2187-19683 coefficients, 1-10% nonzero)
# on that VM: leaves of half the length took 0.77-0.96 of the tree's time up
# to 6561 coefficients but 1.2-1.6 at 15625 and 19683; at most 1024 wide,
# 0.73-0.86.  Dense single vectors of 65-2187 took 1.05-1.35 with the walk.
WALK_WIDTH = 1024


def _terms(v, m):
    """The nonzero (exponent, coefficient) terms of the dense vector v mod m."""
    return [(i, r) for i, c in enumerate(v) if (r := c % m)]


def taylor_shift(bs, a, b, m, n):
    """sum_j bs[j] (a + bX)^j mod (m, X^n): the kernel on one dense vector."""
    return taylor_shift_terms([_terms(bs, m)], a, b, m, n)[0]


def taylor_shift_terms(termss, a, b, m, n):
    """[sum_(e, c) c (a + bX)^e mod (m, X^n) for terms in termss], dense:
    X -> a + bX on polynomials given by their nonzero (exponent,
    coefficient) terms, 0 < c < m, exponents increasing, on one plan.

    A radix-2 tree (von zur Gathen and Gerhard, "Fast algorithms for Taylor
    shifts and certain difference equations", 1997) on packed ints, one per
    vector, with slots of 8k >= 2 bits(m) + 6 + bits(len) bits, len the
    longest length.  With g = a + bX, a leaf block sum_(r < w) v[t w + r] g^r
    stays in place at slots t w .. t w + w - 1; a level splits the even and
    odd blocks with a mask and a shift and merges them as even + g^w odd.
    Each term (t w + r, c) adds c g^r to block t as a walk of the rows g^r
    passes row r (the exact fit below keeps its few rows in a list).  By
    default w is the exact fit, the largest power of two with every leaf
    coefficient and g^w below 2 m s^(w-1) < 2^(8k), s = max(a + b, 2).  When
    at most a quarter of the slots hold a term, the walk goes on to
    W = ceil(len/2) rounded up to even, at most WALK_WIDTH, which leaves one
    merge: a row whose slots would pass 2^R, R = 8k - bits(m) - bits(W), is
    first folded (below) under 2^(h+1), h = ceil((R + bits(m))/2), so every
    leaf coefficient stays below W m 2^R <= 2^(8k).  A row step multiplies
    the bound by a + b <= 2^bits(a+b-1), and the walk runs only if a step
    fits between a fold and R, which for a twist's (c - 1, c), c a unit mod
    m, it does not: twists keep the exact fit.  The rows cost the square of
    W and each term a row's length, so dense input keeps it too.

    From w on, each level first folds the ints and g^w in place
    (`_slot_folds`) until every slot is below 2^t, t = floor((8k -
    bits(w))/2): a fold keeps each slot congruent mod m and takes its bound
    from 2^c to 2^c', c' = floor((c + bits(m) + 3)/2) < c while
    c > bits(m) + 3, and t >= bits(m) + 3.  Then a coefficient of
    even + g^w odd, or of the square of g^w, is below
    2^t + w 2^(2t) <= 2^(2t + bits(w)) <= 2^(8k).  The whole input is
    substituted before the cut to n, and only the output is reduced mod m,
    by `_slots_mod`.

    From TWO_POINT_MIN coefficients on, with two or more levels left, each
    vector is held as two packed ints, H_e and H_o, its even- and odd-index
    slots, so that H(X) = H_e(X^2) + X H_o(X^2), and each level's product
    is a two-point Kronecker product (D. Harvey, "Faster polynomial
    multiplication via multipoint Kronecker substitution", J. Symbolic
    Comput. 44, 2009): with s = 8k, H(+-2^(s/2)) = H_e(2^s) +- 2^(s/2)
    H_o(2^s), and for P+- the products of the two factors at +-2^(s/2),
    P+ + P- = 2 H_e(2^s) and P+ - P- = 2^(s/2 + 1) H_o(2^s), for H their
    product, whose coefficients are below 2^s.  Blocks of w slots (w is
    even whenever a level runs) hold w/2 slots of each half.
    """
    lens = [terms[-1][0] + 1 if terms else 0 for terms in termss]
    size = max(lens, default=0)
    if not size:
        return [[0] * n for _ in termss]
    bm = m.bit_length()
    k = (2 * bm + 6 + size.bit_length() + 7) // 8
    a, b = a % m, b % m
    s = max(a + b, 2)
    top = 1 << 8 * k
    w = 1
    while w < size and 2 * m * s ** (2 * w - 1) < top:
        w *= 2
    g = (b << 8 * k) + a
    W = min(-(-size // 4) * 2, WALK_WIDTH)
    walk = w < W
    if walk:
        R = 8 * k - bm - W.bit_length()
        h = (R + bm + 1) // 2
        step = (a + b - 1).bit_length()
        walk = h + 1 + step <= R and 4 * sum(map(len, termss)) <= sum(lens)
    if w >= size:
        # one block per vector, built as the walk passes its terms in order
        xs = []
        for terms in termss:
            x, row, r = 0, 1, 0
            for e, c in terms:
                while r < e:
                    row *= g
                    r += 1
                x += c * row
            xs.append(x)
    else:
        if walk:
            w = W
        accs = [[0] * -(-ln // w) for ln in lens]
        if walk:
            lo, hi = [int.from_bytes(((1 << j) - 1).to_bytes(k, "little") * (w + 1),
                                     "little") for j in (h, 8 * k - h)]
            c2h = pow(2, h, m)
            at = {}
            for acc, terms in zip(accs, termss):
                for e, c in terms:
                    t, r = divmod(e, w)
                    at.setdefault(r, []).append((acc, t, c))
            row, rb = 1, 1
            for r in range(w):
                for acc, t, c in at.get(r, ()):
                    acc[t] += c * row
                if rb + step > R:
                    row = (row & lo) + (row >> h & hi) * c2h
                    rb = h + 1
                rb += step
                row = row + (row << 8 * k) if a == b == 1 else row * g
        else:
            # the exact fit's few rows, kept while its blocks are built
            rows = [1]
            for _ in range(w - 1):
                rows.append(rows[-1] * g)
            lw, low = w.bit_length() - 1, w - 1
            for acc, terms in zip(accs, termss):
                for e, c in terms:
                    acc[e >> lw] += c * rows[e & low]
            row = rows[-1] * g
        xs = [_pack(acc, k * w) for acc in accs]
        g = row
    two = size >= TWO_POINT_MIN and 2 * w < size
    if w < size:
        folds = _slot_folds(m, k, size, (8 * k - (size - 1).bit_length()) // 2)
    if two:
        hk = 4 * k
        xs = [_halves(x, k, ln) for x, ln in zip(xs, lens)]
        ge, go = _halves(g, k, w + 1)
        while w < size:
            t = (8 * k - w.bit_length()) // 2
            for bound, h, c, lo, hi in folds:
                xs = [((e & lo) + (e >> h & hi) * c, (o & lo) + (o >> h & hi) * c)
                      for e, o in xs]
                ge = (ge & lo) + (ge >> h & hi) * c
                go = (go & lo) + (go >> h & hi) * c
                if bound <= t:
                    break
            half = k * w // 2
            mask = int.from_bytes((b"\xff" * half + bytes(half)) * -(-size // (2 * w)),
                                  "little")
            # g^w at +-2^(4k), and for each vector its odd blocks there
            gp, gm = ge + (go << hk), ge - (go << hk)
            merged = []
            for e, o in xs:
                u = (o >> 8 * half & mask) << hk
                odd = e >> 8 * half & mask
                pp, pm = (odd + u) * gp, (odd - u) * gm
                merged.append(((e & mask) + (pp + pm >> 1),
                               (o & mask) + (pp - pm >> hk + 1)))
            xs = merged
            w *= 2
            if w < size:
                pp, pm = gp * gp, gm * gm
                ge, go = pp + pm >> 1, pp - pm >> hk + 1
    else:
        while w < size:
            t = (8 * k - w.bit_length()) // 2
            for bound, h, c, lo, hi in folds:
                xs = [(x & lo) + (x >> h & hi) * c for x in xs]
                g = (g & lo) + (g >> h & hi) * c
                if bound <= t:
                    break
            half = k * w
            mask = int.from_bytes((b"\xff" * half + bytes(half)) * -(-size // (2 * w)),
                                  "little")
            xs = [(x & mask) + (x >> 8 * half & mask) * g for x in xs]
            w *= 2
            if w < size:
                g *= g
    outs = []
    for x, ln in zip(xs, lens):
        r = min(n, ln)
        if two:
            out = [0] * r
            out[::2] = _slots_mod(x[0], k, (r + 1) // 2, m)
            out[1::2] = _slots_mod(x[1], k, r // 2, m)
        else:
            out = _slots_mod(x, k, r, m)
        outs.append(out + [0] * (n - r))
    return outs


def to_onepx_basis(coeffs, m, n=None):
    """Coefficients over {X^i} -> coefficients over {(1+X)^j}.

    f(Y - 1) expanded in Y = 1+X, an exact unipotent change of basis.  As
    f(Y - 1) = sum_j (-1)^j a_j (1 - Y)^j, it is the shift by 1 between two
    sign flips of the odd-index coefficients.
    """
    flipped = list(coeffs)
    flipped[1::2] = [-c for c in flipped[1::2]]
    out = taylor_shift(flipped, 1, 1, m, len(coeffs) if n is None else n)
    out[1::2] = [-c % m for c in out[1::2]]
    return out


def from_onepx_basis(bs, m, n=None):
    """Inverse of to_onepx_basis: (1+X)^j = sum_i C(j,i) X^i."""
    return taylor_shift(bs, 1, 1, m, len(bs) if n is None else n)


def onepx_rem(ys, cap, p, npow):
    """The remainder of sum_j ys[j] Y^j mod ((Y-1)^cap, p^npow), as cap
    coefficients over {Y^j}: truncation mod X^cap read in the (1+X)-power
    basis, with Y = 1+X.

    Division by the monic (Y-1)^cap: the reversed quotient is the reversed
    dividend times 1/(1-Y)^cap = sum_i C(cap+i-1, i) Y^i, so the remainder
    costs two products and no basis change.
    """
    m = p ** npow
    ys = vec_trim(ys)
    d = len(ys) - cap
    if d <= 0:
        return [y % m for y in ys] + [0] * -d
    inv = binom_row_mod(-cap, d, p, npow, m)
    inv[1::2] = [-c for c in inv[1::2]]
    q = vec_mul(ys[::-1], inv, m, d)[::-1]
    # (Y-1)^cap below degree cap: (-1)^(cap-j) C(cap, j)
    b = binom_row_mod(cap, cap, p, npow, m)
    b[1 - cap % 2::2] = [-c for c in b[1 - cap % 2::2]]
    return vec_add(ys[:cap], vec_neg(vec_mul(q, b, m, cap), m), m)


def binom_row_mod(e, length, p, npow, m):
    """[C(e,0), C(e,1), ..., C(e,length-1)] mod m = p^npow, for any integer e.

    Tracks the p-valuation of the running binomial separately so that the
    divisions by i are exact unit divisions mod m.  For e < 0 this is the
    row of (1+X)^e = sum_i (-1)^i C(i-e-1, i) X^i.
    """
    out = [1 % m] + [0] * (length - 1)
    u, t = 1 % m, 0
    for i in range(1, length):
        num = e - i + 1
        if num == 0:
            break
        while num % p == 0:
            num //= p
            t += 1
        den = i
        while den % p == 0:
            den //= p
            t -= 1
        u = (u * (num % m) * pow(den % m, -1, m)) % m
        out[i] = (u * pow(p, t, m)) % m if t < npow else 0
    return out


def onepx_pow(e, cap, p, npow):
    """(1+X)^e truncated to degree < cap, coefficients mod p^npow."""
    m = p ** npow
    return binom_row_mod(e, min(e + 1, cap), p, npow, m) + \
        [0] * max(0, cap - e - 1)


# Size switches between the schoolbook loop and the Newton inverse in
# poly_divmod_top, set by timing both on dense vectors mod 3^9 to 3^40.  The
# schoolbook loop costs one step per pair of coefficients of g and of the
# quotient, the Newton path a few packed products of fixed overhead each.
# Schoolbook stays while g has fewer than NEWTON_MIN_G coefficients or the
# quotient fewer than DIV_NEWTON_MIN_Q.
NEWTON_MIN_G = 40
DIV_NEWTON_MIN_Q = 10


def series_inverse(g, m, n, start=None):
    """1/g mod (m, X^n) for g[0] a unit mod m.

    Newton doubling on `vec_mul` (von zur Gathen and Gerhard, "Modern
    Computer Algebra", 9.1): if h = 1/g mod X^k, then g h = 1 + X^k e and
    h - X^k (h e) = 1/g mod X^(2k), two products per doubling.  The first
    coefficients are `start`, 1/g mod X^len(start) at a modulus that m
    divides, when it is given, else 1/g[0].  `start` itself is not changed.
    """
    if not start:
        start = [pow(g[0], -1, m)]
    k = min(n, len(start))
    h = [c % m for c in start[:k]]
    while k < n:
        k2 = min(2 * k, n)
        e = vec_mul(g[:k2], h, m, k2)[k:]
        h += [-c % m for c in vec_mul(h, e, m, k2 - k)]
        h += [0] * (k2 - len(h))
        k = k2
    return h


def poly_divmod_top(f, g, m, p, npow):
    """Long division f = q*g + r by the leading coefficient of g.

    Requires the leading coefficient of g to be a unit mod p.  Exact over
    Z/m; returns (q, r) with q padded to len(f) - deg(g) coefficients and r
    reduced mod m and trimmed.  The quotient is unique, so both methods
    below give the same one: schoolbook for a short divisor or quotient,
    else the reversed quotient as rev(f) times the inverse of rev(g),
    and the remainder as f - q g below deg(g), one product each.
    """
    g = vec_trim(g)
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    lead = g[-1]
    if lead % p == 0:
        raise ValueError("leading coefficient is not a unit")
    dg = len(g) - 1
    r = vec_trim([c % m for c in f])
    if len(f) - 1 < dg:
        return [], r
    qlen = len(f) - dg
    dq = len(r) - dg
    if dq <= 0:
        return [0] * qlen, r
    if dg < NEWTON_MIN_G or dq < DIV_NEWTON_MIN_Q:
        linv = pow(lead, -1, m)
        q = [0] * qlen
        for i in range(len(r) - 1, dg - 1, -1):
            c = r[i]
            if c:
                qc = c * linv % m
                q[i - dg] = qc
                for j, gj in enumerate(g, i - dg):
                    r[j] = (r[j] - qc * gj) % m
        return q, vec_trim(r[:dg])
    q, rem = divmod_held(r, HeldDivisor(g, m, dq), m)
    return q + [0] * (qlen - len(q)), vec_trim(rem)


def _slot_bytes(bound, mod, terms):
    """Bytes per packed slot for a product of a vector below bound and one
    below mod, with at most `terms` products in a coefficient."""
    return (bound.bit_length() + mod.bit_length() + terms.bit_length() + 7) // 8


def _pack(xs, k):
    """sum_i xs[i] 2^(8 k i), for 0 <= xs[i] < 2^(8 k)."""
    return int.from_bytes(b"".join([x.to_bytes(k, "little") for x in xs]), "little")


class HeldDivisor:
    """A divisor g held for repeated division by `divmod_held`.

    `g` is the divisor reduced mod `mod` and trimmed.  When its leading
    coefficient is a unit, `rpack` holds the inverse of the reversed g mod
    (mod, X^length) (`series_inverse`) and `gpack` holds g, both packed at
    `slot` bytes a coefficient: a slot holds every product coefficient of a
    dividend below `bound` with the inverse, and of a quotient below mod
    with g.  Otherwise (g zero, or its top coefficient not a unit) both are
    None.  Nothing changes these after they are built.
    """

    __slots__ = ("g", "mod", "bound", "length", "slot", "gpack", "rpack")

    def __init__(self, g, mod, length, bound=0):
        self.g = g = vec_trim([c % mod for c in g])
        self.mod = mod
        self.bound = max(bound, mod)
        self.length = length
        self.slot = self.gpack = self.rpack = None
        if g and math.gcd(g[-1], mod) == 1:
            self.slot = _slot_bytes(self.bound, mod, max(length, len(g)))
            self.gpack = _pack(g, self.slot)
            self.rpack = _pack(series_inverse(g[::-1], mod, length), self.slot)

    def reciprocal(self):
        """The held inverse of the reversed g, as a list (None if none)."""
        if self.rpack is None:
            return None
        return _slots_mod(self.rpack, self.slot, self.length, self.mod)


def divmod_held(r, held, m, quotient=True):
    """(q, rem) with r = q g + rem mod m, for g held as `held`.

    r is a list of ints in [0, held.bound) at least as long as g; its top
    entries may be zero mod m (q then ends in zeros), and m divides
    held.mod.  q has len(r) - deg(g) coefficients mod m, only the lowest
    deg(g) of them when `quotient` is false; rem has deg(g) coefficients
    mod m, untrimmed.  Two packed products (von zur Gathen and Gerhard,
    "Modern Computer Algebra", 9.1): rev(q) = rev(r) rinv mod X^len(q), with
    rinv the held reciprocal, and rem = r - q g mod X^deg(g), for which q's
    low deg(g) coefficients suffice.  A quotient longer than rinv extends a
    local copy of it by Newton steps.
    """
    g = held.g
    dg = len(g) - 1
    dq = len(r) - dg
    k, rpack, gpack = held.slot, held.rpack, held.gpack
    if dq > held.length:
        rinv = series_inverse(g[::-1], m, dq, held.reciprocal())
        k = _slot_bytes(held.bound, held.mod, max(dq, len(g)))
        rpack, gpack = _pack(rinv, k), _pack(g, k)
    nq = dq if quotient else min(dq, dg)
    # slots dq-nq .. dq-1 of rev(r) rinv, lowest first: q[nq-1] .. q[0]
    low = (1 << 8 * k * dq) - 1
    q = _slots_mod(_pack(r[dg:][::-1], k) * (rpack & low) >> 8 * k * (dq - nq),
                   k, nq, m)[::-1]
    rem = [(c - d) % m for c, d in zip(r, _slots_mod(_pack(q[:dg], k) * gpack,
                                                      k, dg, m))]
    return q, rem


# -- elementary number theory on ints ----------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the 13 bases above decide primality of every n below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BOUND = 3317044064679887385961981


def _strong_prp(n, a, d, s):
    """Miller-Rabin: is n (with n - 1 = d 2^s, d odd) a strong probable prime to base a?"""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_prp(n):
    """Strong Lucas test with Selfridge's parameters (P = 1, Q = (1 - D)/4).

    n is odd, has no prime factor up to 41 and is not 1.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # left-to-right binary: U_k, V_k, Q^k with P = 1, starting at k = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n if U & 1 else U) // 2
            V = (V + n if V & 1 else V) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def isprime(n):
    """Primality of the integer n.

    Miller-Rabin to the first 13 prime bases, which is deterministic below
    3.3 10^24; above that, Baillie-PSW (base 2 plus a strong Lucas test).
    """
    if type(n) is not int:
        raise ValueError("%r is not an integer" % (n,))
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_BOUND:
        return all(_strong_prp(n, a, d, s) for a in _MR_BASES)
    return _strong_prp(n, 2, d, s) and _strong_lucas_prp(n)


def jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0, by the binary algorithm."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n should be an odd positive integer")
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def sqrt_mod_prime(a, p):
    """The square root r <= p // 2 of a modulo the prime p, or None.

    Tonelli-Shanks; of the two roots r and p - r the smaller is returned.
    """
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # least i with t^(2^i) = 1; then i < s
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def monic_divmod(r, g):
    """(q, rem) with r = q g + rem over Z and len(rem) = deg g, for monic g.

    Long division that visits only the nonzero coefficients of g, so a sparse
    g such as Phi_n(x) = Phi_rad(n)(x^(n / rad(n))) costs its support.
    """
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    dg = len(g) - 1
    r = list(r) + [0] * (dg - len(r))
    low = [(j, c) for j, c in enumerate(g[:dg]) if c]
    for k in range(len(r) - 1 - dg, -1, -1):
        c = r[k + dg]
        if c:
            for j, gj in low:
                r[k + j] -= c * gj
    # r[k + dg] is never touched again: it is the quotient's slot k
    return r[dg:], r[:dg]


def cyclotomic(n):
    """Int coefficients of Phi_n, low degree first.

    Phi_d for each divisor d of n, in increasing order: x^d - 1 divided
    exactly by the Phi_e already found for the proper divisors e of d.
    """
    if n < 1:
        raise ValueError("Cannot generate cyclotomic polynomial of order %d" % n)
    phis = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        r = [-1] + [0] * (d - 1) + [1]
        for e, g in phis.items():
            if d % e == 0:
                r = monic_divmod(r, g)[0]
        phis[d] = r
    return phis[n]
