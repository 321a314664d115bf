"""q-expansion constructions: theta series, p-depletion, Eisenstein layers.

Each is built from its defining sum, with no ring class of its own.  Theta
series are built for imaginary quadratic fields of class number one; the
coefficient a_n sums psi(a) = alpha^t chi(alpha) over ideals of norm n coprime
to the conductor.  When p is inert every a_p vanishes, which is the
non-ordinarity these expansions feed into the half-log machinery.

Eisenstein coefficients are exact integer vectors modulo a cyclotomic
polynomial; Euler products expand to Dirichlet coefficients by power-series
inversion of the local factors (constant terms 1, so no division happens).
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

from padiclog._poly import cyclotomic, isprime, jacobi, monic_divmod
from padiclog.padic import PadicError

CLASS_NUMBER_ONE = (-3, -4, -7, -8, -11, -19, -43, -67, -163)

# Largest root order M of `eisenstein_depleted`.  The time and memory of
# building Phi_M grow with M, so a larger M is refused before it is built.
MAX_ROOT_ORDER = 10 ** 5


class UnitInconsistent(PadicError):
    pass


class BadPrime(PadicError):
    pass


class QuadOrder:
    """Ring of integers of Q(sqrt(D)), D a class-number-one discriminant.

    Elements are pairs (a, b) = a + b*w, with w = sqrt(D)/2 * 2 ... concretely
    w^2 = D/4 when D = 0 mod 4, and w^2 = w + (D-1)/4 when D = 1 mod 4.
    """

    def __init__(self, disc):
        if disc not in CLASS_NUMBER_ONE:
            raise ValueError("supported discriminants: %s" % (CLASS_NUMBER_ONE,))
        self.disc = disc
        self.square_free_part = disc // 4 if disc % 4 == 0 else disc

    def mul(self, x, y):
        a, b = x
        c, d = y
        if self.disc % 4 == 0:
            m = self.disc // 4
            return (a * c + m * b * d, a * d + b * c)
        m = (self.disc - 1) // 4
        # w^2 = w + m
        return (a * c + m * b * d, a * d + b * c + b * d)

    def power(self, x, t):
        if t < 0:
            raise ValueError("exponent must be >= 0, got %d" % t)
        out = (1, 0)
        base = x
        while t:
            if t & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            t >>= 1
        return out

    def norm(self, x):
        a, b = x
        if self.disc % 4 == 0:
            return a * a - (self.disc // 4) * b * b
        return a * a + a * b + b * b * (1 - self.disc) // 4

    def conj(self, x):
        a, b = x
        if self.disc % 4 == 0:
            return (a, -b)
        return (a + b, -b)

    def units(self):
        if self.disc == -4:
            return [(1, 0), (-1, 0), (0, 1), (0, -1)]
        if self.disc == -3:
            w = (0, 1)
            out = [(1, 0)]
            cur = w
            for _ in range(5):
                out.append(cur)
                cur = self.mul(cur, w)
            return out
        return [(1, 0), (-1, 0)]


class ImagQuadCtx:
    """Field data plus the Hecke character: infinity-type exponent t and a
    quadratic-or-trivial finite part on residues modulo the conductor."""

    def __init__(self, disc, t, cond=1, chi=None):
        if cond < 1:
            raise ValueError("conductor must be >= 1, got %d" % cond)
        self.order = QuadOrder(disc)
        self.disc = disc
        self.t = t
        self.cond = cond
        self.chi = chi
        for eps in self.order.units():
            val = self.order.power(eps, t)
            c = self._chi_of(eps)
            if self.order.mul(val, (c, 0)) != (1, 0):
                raise UnitInconsistent(
                    "eps^t chi(eps) != 1 for unit %r" % (eps,))

    def _chi_of(self, x):
        if self.chi is None:
            return 1
        c = self.chi((x[0] % self.cond, x[1] % self.cond))
        if c not in (1, -1):
            raise ValueError("finite character values must be +-1 here")
        return c

    def psi_of(self, x):
        """alpha^t * chi(alpha); unit consistency makes it an ideal invariant."""
        val = self.order.power(x, self.t)
        c = self._chi_of(x)
        return val if c == 1 else (-val[0], -val[1])

    def coprime_to_cond(self, x):
        if self.cond == 1:
            return True
        nrm = self.order.norm(x)
        return gcd(nrm, self.cond) == 1


class QExpansion(NamedTuple):
    """Coefficients a_1..a_nmax over a declared ring."""

    ring: str
    n_max: int
    coeffs: list

    def coeff(self, n):
        if not 1 <= n <= self.n_max:
            raise IndexError("coefficient index out of range")
        return self.coeffs[n - 1]

    def to_json(self):
        return {"ring": self.ring, "nmax": self.n_max,
                "coeffs": [list(c) if isinstance(c, tuple) else c
                           for c in self.coeffs]}


def theta_series(ctx, n_max):
    """sum over ideals coprime to the conductor of psi(a) q^(N a).

    The elements x = a + b w of norm <= n_max come from 4 N(x) = u^2 + |D| b^2
    with u = 2a + (D mod 4) b: one isqrt per b.  As eps^t chi(eps) = 1 for
    every unit (`ImagQuadCtx`), psi is the same on the |U| generators of an
    ideal.  One of x and -x has b > 0 or b = 0 < a; only those are visited,
    so each norm layer divides exactly by |U| / 2.

    For conjugation-symmetric characters the norm layers sum to rational
    integers; otherwise the coefficients live in the quadratic order and are
    returned as pairs.
    """
    s, absd = ctx.disc % 4, -ctx.disc
    acc = [(0, 0)] * n_max
    for b in range(isqrt(4 * n_max // absd) + 1):
        umax = isqrt(4 * n_max - absd * b * b)
        lo = -((umax + s * b) // 2) if b else 1
        for a in range(lo, (umax - s * b) // 2 + 1):
            u = 2 * a + s * b
            nrm = (u * u + absd * b * b) // 4
            if ctx.coprime_to_cond((a, b)):
                v = ctx.psi_of((a, b))
                c, d = acc[nrm - 1]
                acc[nrm - 1] = (c + v[0], d + v[1])
    nu = len(ctx.order.units()) // 2
    acc = [(c // nu, d // nu) for c, d in acc]
    if all(d == 0 for _, d in acc):
        return QExpansion("int", n_max, [c for c, _ in acc])
    return QExpansion("quad:%d" % ctx.disc, n_max, acc)


def deplete(f, p):
    """Zero every coefficient a_n with p | n (a zero vector over a vector ring)."""
    if p < 1:
        raise ValueError("p must be >= 1, got %d" % p)
    out = [c if (i + 1) % p else (0 if isinstance(c, int) else [0] * len(c))
           for i, c in enumerate(f.coeffs)]
    return QExpansion(f.ring, f.n_max, out)


def eisenstein_depleted(k, m_root, zeta_index, p, n_max):
    """a_n = sum_{d | n} d^(k-1) (zeta^(d i) + (-1)^k zeta^(-d i)), p-depleted.

    The divisors of n come in pairs d, n/d with d <= sqrt(n).  Each a_n is
    collected as exponent counts in Z[x]/(x^M - 1), then reduced by one
    remainder mod Phi_M, which divides x^M - 1, after a pass by a sparse
    monic multiple of Phi_M.  M is at most MAX_ROOT_ORDER.
    """
    if p < 1:
        raise ValueError("p must be >= 1, got %d" % p)
    if k < 1:
        raise ValueError("weight k must be >= 1 (d^(k-1) must be an integer)")
    if gcd(zeta_index, m_root) != 1:
        raise ValueError("zeta index must be invertible modulo the root order")
    if m_root > MAX_ROOT_ORDER:
        raise ValueError("root order %d exceeds the supported %d"
                         % (m_root, MAX_ROOT_ORDER))
    phi = cyclotomic(m_root)
    # for the least prime q | M, sum_(j < q) x^(j s), s = M/q, is a monic
    # multiple of Phi_M of degree top = M - s with q terms: reducing by it
    # first leaves the dense division top - phi(M) positions, not M - phi(M)
    q = next((q for q in range(2, m_root + 1) if m_root % q == 0), 1)
    s = m_root // q
    top = m_root - s if q > 1 else m_root
    sign = -1 if k % 2 else 1
    coeffs = []
    for n in range(1, n_max + 1):
        counts = [0] * m_root
        if n % p:
            for d in range(1, isqrt(n) + 1):
                if n % d == 0:
                    for e in {d, n // d}:
                        w = e ** (k - 1)
                        counts[e * zeta_index % m_root] += w
                        counts[-e * zeta_index % m_root] += sign * w
            for i in range(m_root - 1, top - 1, -1):
                if counts[i]:
                    for j in range(i - top, i, s):
                        counts[j] -= counts[i]
        coeffs.append(tuple(monic_divmod(counts[:top], phi)[1]))
    return QExpansion("cyclotomic:%d" % m_root, n_max, coeffs)


def dirichlet_from_euler(local_factors, n_max):
    """Multiplicative coefficients t_n from local factors with constant 1.

    t_{l^m} comes from inverting the local polynomial as a power series
    (constant term 1, so the recursion needs no division).  t is built one
    prime at a time: each n already reached, times l^m, is reached next with
    t_n t_{l^m}.  An n with a prime factor that has no supplied factor is
    never reached, so t_n = 0.
    """
    out = [1] + [0] * (n_max - 1) if n_max > 0 else []
    reached = [1]
    for ell, poly in local_factors.items():
        if not isprime(ell):
            raise ValueError("local factors must be indexed by primes")
        if poly[0] != 1:
            raise ValueError("local factor must have constant term 1")
        inv = [1]
        while ell ** len(inv) <= n_max:
            m = len(inv)
            inv.append(-sum(poly[j] * inv[m - j]
                            for j in range(1, min(m, len(poly) - 1) + 1)))
        new = []
        for n in reached:
            m, e = n * ell, 1
            if m > n_max:
                break
            while m <= n_max:
                out[m - 1] = out[n - 1] * inv[e]
                new.append(m)
                m, e = m * ell, e + 1
        reached += new
        reached.sort()  # so a pass ends at the first n with n l > n_max
    return out


def nebentype_value(ctx, ell):
    """epsilon_K(ell) * chi(ell) on primes coprime to the discriminant and conductor."""
    if ell % 2 == 0 or not isprime(ell):
        raise BadPrime("need an odd prime")
    if ctx.disc % ell == 0 or ctx.cond % ell == 0:
        raise BadPrime("prime divides the discriminant or conductor")
    val = jacobi(ctx.disc, ell)
    if ctx.chi is not None:
        val *= ctx._chi_of((ell, 0))
    return val
