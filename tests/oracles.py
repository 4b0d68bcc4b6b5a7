"""Test-only mpmath oracles, each computed from the doubles the code holds.

* kernel_zeros and kernel_means: the zeros of a kernel sum on the circle and
  its untruncated quadratic means in closed form from its poles and zeros,
  at 40 digits.
* parseval_oracle: the Parseval means of sparse terms at 50 digits, with the
  relative tolerance of the code's double.
* kernel_decay_bound and lacunary_decay_bound: the two constructions'
  closed-form bounds on (1-r)^2 times the means, at 40 digits.
"""

import math

import mpmath

EPS = 2.0 ** -52

# Relative error bound of numerics.float_product: one rounding of e and one
# of the product up to 1000 bits; past that e is cut to its 53-bit head, off
# by under one ulp, and the product is rounded once.
PRODUCT_REL = 4 * EPS


def _merged(p):
    """(angle, summed weight) of a kernel sum's distinct atom angles, sorted,
    as mpf."""
    merged = {}
    for t, w in p.atoms:
        merged[t] = merged.get(t, 0) + mpmath.mpf(w)
    return [(mpmath.mpf(t), merged[t]) for t in sorted(merged)]


def kernel_zeros(p, dps=40):
    """Angles psi of the zeros of a kernel sum p on the circle at dps digits,
    one on the arc that follows each distinct atom angle.

    On the circle p = i*(c + sum_j w_j*cot((psi - theta_j)/2)), which falls
    from +inf to -inf along each arc.  A float bisection on its sign brackets
    each zero by adjacent doubles; the bracket is widened until the sign
    change holds at dps digits too, and mpmath's Anderson-Bjorck method
    finishes inside it.
    """
    with mpmath.workdps(dps):
        atoms = _merged(p)
        doubles = [(float(t), float(w)) for t, w in atoms]
        c = mpmath.mpf(p.im_p0)

        def g_float(x):
            return p.im_p0 + math.fsum(w / math.tan(0.5 * (x - t)) for t, w in doubles)

        def g(x):
            return c + mpmath.fsum(w * mpmath.cot((x - t) / 2) for t, w in atoms)

        thetas = [t for t, _ in atoms]
        zeros = []
        for arc_lo, arc_hi in zip(thetas, thetas[1:] + [thetas[0] + 2 * mpmath.pi]):
            lo, hi = float(arc_lo), float(arc_hi)
            while True:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                lo, hi = (mid, hi) if g_float(mid) > 0.0 else (lo, mid)
            a, b, step = mpmath.mpf(lo), mpmath.mpf(hi), mpmath.mpf(hi - lo)
            while g(a) <= 0:
                a, step = a - step, 2 * step
            while g(b) >= 0:
                b, step = b + step, 2 * step
            assert arc_lo < a < b < arc_hi
            zeros.append(mpmath.findroot(g, (a, b), solver="anderson", verify=False))
        return zeros


def kernel_means(p, radii, dps=40):
    """Untruncated means 2*pi * sum n^2 |a_n|^2 r^(2n) of a kernel sum at each
    radius, at dps digits.

    n*a_n = sum_k s_k e^{-i*n*phi_k} over the poles (s = +1) and the zeros
    (s = -1), so the means are 2*pi * sum_{k,l} s_k s_l Re[q/(1-q)] with
    q = r^2 e^{i(phi_l - phi_k)}.  With rho = r^2, g = 1 - rho (exact) and
    h = sin^2((phi_l - phi_k)/2), Re[q/(1-q)] = rho*(g - 2h)/(g^2 + 4*rho*h),
    which cancels nothing in the denominator; (k, l) and (l, k) agree.
    """
    with mpmath.workdps(dps):
        phis = [(1, t) for t, _ in _merged(p)] + [(-1, z) for z in kernel_zeros(p, dps)]
        pairs = [
            (s * u, mpmath.sin((b - a) / 2) ** 2)
            for k, (s, a) in enumerate(phis)
            for u, b in phis[k + 1 :]
        ]
        out = []
        for r in radii:
            rho = mpmath.mpf(r) ** 2
            g = 1 - rho
            g2, rho4 = g * g, 4 * rho
            cross = mpmath.fsum(su * (g - 2 * h) / (g2 + rho4 * h) for su, h in pairs)
            out.append(2 * mpmath.pi * rho * (len(phis) / g + 2 * cross))
        return out


def parseval_oracle(terms, s):
    """(2 pi sum e^2 |c|^2 exp(-2es) at 50 digits, relative tolerance)."""
    with mpmath.workdps(50):
        want = 2 * mpmath.pi * mpmath.fsum(
            mpmath.mpf(e) ** 2 * abs(mpmath.mpc(c)) ** 2
            * mpmath.exp(-2 * e * mpmath.mpf(s))
            for e, c in terms
        )
        # exp(-x) scales the relative error of x = 2es by x; forming each term
        # in log space adds a few ulp of 2 log e + x, and of 2 log|c| where
        # |c|^2 is below the normal range and the term takes that log instead
        rel = 0.0
        for e, c in terms:
            x = float(2 * e * mpmath.mpf(s))
            log_c2 = 2 * abs(math.log(abs(c))) if abs(c) ** 2 < 2.0 ** -1022 else 0.0
            rel = max(rel, x * PRODUCT_REL + 8 * EPS * (2 * math.log(e) + x + 4 + log_c2))
        return float(want), rel


def kernel_decay_bound(atoms, r, dps=40):
    """8*pi*J^2*(1-r)*r^2/(1+r) at dps digits for J distinct atom angles."""
    j = len({t for t, _ in atoms})
    with mpmath.workdps(dps):
        r = mpmath.mpf(r)
        return 8 * mpmath.pi * j * j * (1 - r) * r * r / (1 + r)


def lacunary_decay_bound(terms, r, dps=40):
    """2*pi * sum |c|^2 * min(exp(-2), (e*(1-r))^2) at dps digits."""
    with mpmath.workdps(dps):
        gap, cap = 1 - mpmath.mpf(r), mpmath.exp(-2)
        return 2 * mpmath.pi * mpmath.fsum(
            abs(mpmath.mpc(c)) ** 2 * min(cap, (e * gap) ** 2) for e, c in terms
        )
