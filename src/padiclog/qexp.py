"""q-expansion constructions: theta series, p-depletion, Eisenstein layers.

Theta series are built for imaginary quadratic fields of class number one by
enumerating element representatives of ideals up to units; the coefficient
a_n sums psi(a) = alpha^t chi(alpha) over ideals of norm n coprime to the
conductor.  When p is inert every a_p vanishes, which is the non-ordinarity
these expansions feed into the half-log machinery.

Eisenstein coefficients are exact integer vectors modulo a cyclotomic
polynomial; Euler products expand to Dirichlet coefficients by power-series
inversion of the local factors (constant terms 1, so no division happens).
"""

from __future__ import annotations

from dataclasses import dataclass

from sympy import isprime, jacobi_symbol
from sympy.polys.specialpolys import cyclotomic_poly

from padiclog.padic import PadicError

CLASS_NUMBER_ONE = (-3, -4, -7, -8, -11, -19, -43, -67, -163)


class UnitInconsistent(PadicError):
    pass


class BadPrime(PadicError):
    pass


def kronecker(d, n):
    """Kronecker symbol (d|n) for n a positive odd prime not dividing d."""
    return int(jacobi_symbol(d % n, n))


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
        from math import gcd
        return gcd(nrm, self.cond) == 1


@dataclass
class QExpansion:
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


def ideal_representatives(order, n_max, n_min=1):
    """One element generator per ideal of norm in [n_min, n_max]."""
    disc = order.disc
    reps = {}
    units = order.units()
    if disc % 4 == 0:
        m = -disc // 4
        bmax = int((n_max / m) ** 0.5) + 1
    else:
        bmax = int((4 * n_max / -disc) ** 0.5) + 2
    amax = int(n_max ** 0.5) + abs(disc)
    for b in range(-bmax, bmax + 1):
        for a in range(-amax, amax + 1):
            x = (a, b)
            nrm = order.norm(x)
            if not n_min <= nrm <= n_max:
                continue
            key = min(order.mul(u, x) for u in units)
            if key not in reps:
                reps[key] = (x, nrm)
    return list(reps.values())


def theta_series(ctx, n_max):
    """sum over ideals coprime to the conductor of psi(a) q^(N a).

    For conjugation-symmetric characters the norm layers sum to rational
    integers; otherwise the coefficients live in the quadratic order and are
    returned as pairs.
    """
    acc = [(0, 0)] * n_max
    for x, nrm in ideal_representatives(ctx.order, n_max):
        if not ctx.coprime_to_cond(x):
            continue
        v = ctx.psi_of(x)
        a, b = acc[nrm - 1]
        acc[nrm - 1] = (a + v[0], b + v[1])
    if all(b == 0 for _, b in acc):
        return QExpansion("int", n_max, [a for a, _ in acc])
    return QExpansion("quad:%d" % ctx.disc, n_max, acc)


def deplete(f, p):
    """Zero every coefficient a_n with p | n."""
    out = [0 if (i + 1) % p == 0 else c for i, c in enumerate(f.coeffs)]
    return QExpansion(f.ring, f.n_max, out)


class CycIntRing:
    """Z[x]/Phi_M(x) with exact integer coefficient vectors."""

    def __init__(self, m_root):
        self.m_root = m_root
        poly = cyclotomic_poly(m_root)
        cs = poly.as_poly().all_coeffs()[::-1]
        self.phi = [int(c) for c in cs]
        self.deg = len(self.phi) - 1
        # reduction table for x^e, e < m_root
        self._pow = []
        cur = [1] + [0] * (self.deg - 1) if self.deg > 1 else [1]
        for e in range(m_root):
            self._pow.append(tuple(cur))
            cur = self._shift(cur)

    def _shift(self, vec):
        out = [0] + list(vec)
        if len(out) > self.deg:
            top = out.pop()
            if top:
                for i in range(self.deg):
                    out[i] -= top * self.phi[i]
        return out

    def zeta_pow(self, e):
        return self._pow[e % self.m_root]

    def zero(self):
        return tuple([0] * self.deg)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def scale(self, x, c):
        return tuple(a * c for a in x)


def eisenstein_depleted(k, m_root, zeta_index, p, n_max):
    """a_n = sum_{d | n} d^(k-1) (zeta^(d i) + (-1)^k zeta^(-d i)), p-depleted."""
    from math import gcd
    if k < 1:
        raise ValueError("weight k must be >= 1 (d^(k-1) must be an integer)")
    if gcd(zeta_index, m_root) != 1:
        raise ValueError("zeta index must be invertible modulo the root order")
    ring = CycIntRing(m_root)
    sign = -1 if k % 2 else 1
    coeffs = []
    for n in range(1, n_max + 1):
        if n % p == 0:
            coeffs.append(ring.zero())
            continue
        acc = ring.zero()
        for d in range(1, n + 1):
            if n % d:
                continue
            term = ring.add(ring.zeta_pow(d * zeta_index),
                            ring.scale(ring.zeta_pow(-d * zeta_index), sign))
            acc = ring.add(acc, ring.scale(term, d ** (k - 1)))
        coeffs.append(acc)
    return QExpansion("cyclotomic:%d" % m_root, n_max, coeffs)


def dirichlet_from_euler(local_factors, n_max):
    """Multiplicative coefficients t_n from local factors with constant 1.

    t_{l^m} comes from inverting the local polynomial as a power series
    (constant term 1, so the recursion needs no division); primes without a
    supplied factor contribute t_{l^m} = 0 for m >= 1.
    """
    prime_powers = {}
    for ell, poly in local_factors.items():
        if not isprime(ell):
            raise ValueError("local factors must be indexed by primes")
        if poly[0] != 1:
            raise ValueError("local factor must have constant term 1")
        emax = 0
        q = ell
        while q <= n_max:
            emax += 1
            q *= ell
        inv = [1]
        for m in range(1, emax + 1):
            acc = 0
            for j in range(1, min(m, len(poly) - 1) + 1):
                acc = acc + poly[j] * inv[m - j]
            inv.append(-acc)
        prime_powers[ell] = inv
    out = [1] * n_max
    for n in range(2, n_max + 1):
        val = 1
        rem = n
        ell = 2
        ok = True
        while ell * ell <= rem:
            if rem % ell == 0:
                e = 0
                while rem % ell == 0:
                    rem //= ell
                    e += 1
                if ell in prime_powers:
                    val = val * prime_powers[ell][e]
                else:
                    ok = False
                    break
            ell += 1
        if ok and rem > 1:
            if rem in prime_powers:
                val = val * prime_powers[rem][1]
            else:
                ok = False
        out[n - 1] = val if ok else 0
    return out


def nebentype_value(ctx, ell):
    """epsilon_K(ell) * chi(ell) on primes coprime to the discriminant and conductor."""
    if ell % 2 == 0 or not isprime(ell):
        raise BadPrime("need an odd prime")
    if ctx.disc % ell == 0 or ctx.cond % ell == 0:
        raise BadPrime("prime divides the discriminant or conductor")
    val = kronecker(ctx.disc, ell)
    if ctx.chi is not None:
        val *= ctx._chi_of((ell, 0))
    return val
