"""Low-level helpers for truncated polynomial arithmetic over Z/p^N.

Coefficient vectors are plain int lists reduced modulo a power of p; the
series class `iwadist.IwaSeries` wraps them with context and precision
bookkeeping.  Multiplication is one Kronecker product: both vectors are
packed into one int each and multiplied once; products of mostly-zero
vectors instead sum their nonzero pairs (`sparse_mul`).  There is one
substitution kernel, `taylor_shift`: f(a + bX) mod (m, X^n) for a linear
a + bX, on one packed int for every level of its tree.  Its low levels,
whose exact values fit a slot, are built from the nonzero coefficients
alone, so a sparse input such as a log-matrix entry read off its coset
costs less.  The twists X -> u^j (1+X) - 1 call it directly; the
(1+X)-power basis changes, and with them the Mellin transform, are its
shift X -> X+1 (or X -> X-1), and Frobenius is Y -> Y^p between two of
them.  Nothing is cached.  The (1+X)-power basis transforms are exact
unipotent integer maps, which is what makes the finite-level Mellin
transform invertible (and keeps the p-content of a vector, which
`logmat` strips before the shift).  Truncation mod X^cap of a vector held
in that basis is one division by (Y-1)^cap, Y = 1+X (`onepx_rem`), with no
basis change.

Division by a polynomial with a unit leading coefficient (`poly_divmod_top`)
also runs on that multiply: the quotient is one product with the inverse of
the reversed divisor, built by Newton doubling (`series_inverse`), and the
remainder one more (`divmod_held`, which also serves a caller that holds a
fixed divisor with its inverse as a `HeldDivisor`).  Short divisors and
quotients keep the schoolbook loop.

The elementary number theory the package needs around that core -- primality,
the Jacobi symbol, square roots modulo a prime and the cyclotomic
polynomials -- lives at the end of this module, on ints only (Cohen, "A
Course in Computational Algebraic Number Theory", 1.4-1.5 and 8.2).
"""

from __future__ import annotations

import math


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
    k = (2 * m.bit_length() + min(len(xs), len(ys)).bit_length() + 7) // 8
    a = _pack(xs, k)
    b = a if xs == ys else _pack(ys, k)
    r = len(xs) + len(ys) - 1
    buf = (a * b).to_bytes(k * r, "little")
    unpack = int.from_bytes
    out = [unpack(buf[i:i + k], "little") % m for i in range(0, k * min(n, r), k)]
    return out + [0] * (n - r)


def sparse_mul(xs, ys, m):
    """The untruncated product xs * ys mod m, summed over the pairs of
    nonzero coefficients only.

    For factors that are mostly zeros, such as phi^i(c) in Y with its
    nonzeros p^i apart, this costs less than packing every zero into
    `vec_mul`'s product.
    """
    if not xs or not ys:
        return []
    out = [0] * (len(xs) + len(ys) - 1)
    ys = [(j, y) for j, y in enumerate(ys) if y]
    for i, x in [(i, x) for i, x in enumerate(xs) if x]:
        for j, y in ys:
            out[i + j] += x * y
    return [c % m for c in out]


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


def _slot_folds(m, k, size):
    """The folds that take every k-byte slot of a size-slot int from below
    2^(8k) to below 2^(bits(m) + 3), mod m, as (h, 2^h mod m, mask of the
    low h bits of each slot, mask of the low 8k - h bits of each slot).

    A slot v < 2^b folds to (v >> h) (2^h mod m) + (v mod 2^h)
    < 2^(b - h + bits(m)) + 2^h, which is at most 2^(h+1) when
    2 (h + 1) >= b + bits(m) + 2.
    """
    bm = m.bit_length()
    b = 8 * k
    out = []
    while b > bm + 3:
        b = (b + bm + 3) // 2
        h = b - 1
        lo = ((1 << h) - 1).to_bytes(k, "little") * size
        hi = ((1 << 8 * k - h) - 1).to_bytes(k, "little") * size
        out.append((h, pow(2, h, m), int.from_bytes(lo, "little"),
                    int.from_bytes(hi, "little")))
    return out


def taylor_shift(bs, a, b, m, n):
    """sum_j bs[j] (a + bX)^j mod (m, X^n): the substitution X -> a + bX.

    A radix-2 tree on one packed int (von zur Gathen and Gerhard, "Fast
    algorithms for Taylor shifts and certain difference equations", 1997).
    With g = a + bX, the level blocks sum_{i < w} bs[t w + i] g^i,
    w = 2^level, have degree < w, so they stay in place at slots
    t w .. t w + w - 1; a level splits the even and odd blocks with one
    alternating mask and one shift and merges them as even + g^w odd, one
    multiply and one add.

    The slot holds 2 bits(m) + 6 + bits(len) bits, enough for a merge of
    values below 2^(bits(m) + 3).  The low levels are not run: up to the
    largest block size B whose exact values fit the slot, each block is
    built directly in integers, every nonzero coefficient c at t B + r
    adding c g^r to block t (g^r packed, so one multiply and one add), and
    zero coefficients cost nothing.  For the shift X -> X+1, B is the
    largest power of two with m 2^B below the slot's range; any other
    (a, b) leaves that range after about one level.  From B on, each level
    first folds the int and g^w down to slots below 2^(bits(m) + 3), in
    place: a fold keeps each slot v congruent mod m as
    (v >> h) (2^h mod m) + (v mod 2^h), with h set so the bound on the
    slot falls from b to about (b + bits(m))/2 bits.  Only the output is
    reduced mod m.  The whole trimmed input is substituted before the cut
    to n: its coefficients of degree >= n still reach low degrees.
    """
    cur = vec_trim([c % m for c in bs])
    size = len(cur)
    if not size:
        return [0] * n
    bm = m.bit_length()
    k = (2 * bm + 6 + size.bit_length() + 7) // 8
    a, b = a % m, b % m
    top = 1 << 8 * k
    # The largest power of two w such that every coefficient of a block
    # sum_{r < w} c_r (a + bX)^r, c_r < m, and of (a + bX)^w is below a
    # slot's 2^(8k): with s = max(a + b, 2) both are below 2 m s^(w-1).
    s = max(a + b, 2)
    w = 1
    while w < size and 2 * m * s ** (2 * w - 1) < top:
        w *= 2
    # the levels below w, exactly: c at t w + r adds c (a + bX)^r to
    # block t, packed carry-free as c g^r
    g = (b << 8 * k) + a
    gpow = [1]
    for _ in range(min(w, size) - 1):
        gpow.append(gpow[-1] * g)
    blocks = [0] * -(-size // w)
    lw, low = w.bit_length() - 1, w - 1
    for i, c in enumerate(cur):
        if c:
            blocks[i >> lw] += c * gpow[i & low]
    x = _pack(blocks, k * w)
    if w < size:
        folds = _slot_folds(m, k, size)
        g *= gpow[-1]
    while w < size:
        for h, c, lo, hi in folds:
            x = (x & lo) + (x >> h & hi) * c
            g = (g & lo) + (g >> h & hi) * c
        half = k * w
        mask = int.from_bytes((b"\xff" * half + bytes(half)) * -(-size // (2 * w)),
                              "little")
        x = (x & mask) + (x >> 8 * half & mask) * g
        w *= 2
        if w < size:
            g *= g
    buf = x.to_bytes(k * size, "little")
    unpack = int.from_bytes
    out = [unpack(buf[i:i + k], "little") % m for i in range(0, k * min(n, size), k)]
    return out + [0] * (n - len(out))


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


def _unpack(x, k, n):
    """The n k-byte slots of x, lowest first: the inverse of _pack."""
    buf = x.to_bytes(k * n, "little")
    return [int.from_bytes(buf[i:i + k], "little") for i in range(0, k * n, k)]


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
        return _unpack(self.rpack, self.slot, self.length)


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
    unpack = int.from_bytes
    # r[dg:] as big-endian slots read as one big-endian int: rev(r) packed
    x = unpack(b"".join([c.to_bytes(k, "big") for c in r[dg:]]), "big")
    nq = dq if quotient else min(dq, dg)
    # slots dq-1 .. dq-nq of rev(r) rinv, highest first: q[0] .. q[nq-1]
    low = (1 << 8 * k * dq) - 1
    buf = ((x * (rpack & low) & low) >> 8 * k * (dq - nq)).to_bytes(k * nq, "big")
    q = [unpack(buf[i:i + k], "big") % m for i in range(0, k * nq, k)]
    buf = ((_pack(q[:dg], k) * gpack) & ((1 << 8 * k * dg) - 1)
           ).to_bytes(k * dg, "little")
    rem = [(c - unpack(buf[i:i + k], "little")) % m
           for c, i in zip(r, range(0, k * dg, k))]
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
            if d % e:
                continue
            # exact division by the monic g; the quotient reuses the low slots
            dg = len(g) - 1
            for i in range(len(r) - 1, dg - 1, -1):
                c = r[i]
                if c:
                    for j in range(dg):
                        r[i - dg + j] -= c * g[j]
            r = r[dg:]
        phis[d] = r
    return phis[n]
