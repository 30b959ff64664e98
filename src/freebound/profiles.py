"""Sampled wave profiles: WaveProfile, the sampler that computes a dense
shot's samples where they are read, and profile_interpolator, the PCHIP
evaluator of q(z) that reads only the samples around its queries.

A shooting function of waves.py returns a profile that holds its shot's
sampler (_Sampler).  The first read of z, q or qp computes every sample
and keeps the three arrays; the evaluator computes only its knots, so
profile_error never holds a whole profile.
"""

from __future__ import annotations

from math import nan

import numpy as np

__all__ = ["WaveProfile", "profile_interpolator"]

_SAMPLE_BLOCK = 4096   # samples of a dense shot evaluated at a time


class WaveProfile:
    """Sampled ODE profile.

    kind is one of 'semi', 'finite', 'traveling-left', 'traveling-right',
    'tadpole', 'stationary'.  z, q, qp hold ordered samples of (z, q, q');
    speed is the wave speed (None for stationary profiles); slope0 is
    q'(0); endpoint is z_c for finite waves, else None; dslope0 is
    d(slope0)/dg for semi-waves shot with variational=True, else None.

    A profile made from arrays holds them.  A shooting function's profile
    holds its dense shot's sampler instead (_Sampler): the first read of
    z, q or qp computes every sample and keeps the three arrays, and
    profile_interpolator reads the few samples it needs from the sampler,
    never those arrays.
    """

    def __init__(self, kind: str, z: np.ndarray, q: np.ndarray, qp: np.ndarray,
                 speed: float | None, slope0: float, endpoint: float | None = None,
                 dslope0: float | None = None):
        self.kind, self.speed, self.slope0 = kind, speed, slope0
        self.endpoint, self.dslope0 = endpoint, dslope0
        self._sampler = None
        self._arrays = (z, q, qp)

    @classmethod
    def _sampled(cls, kind, sampler, **fields) -> WaveProfile:
        profile = cls(kind, None, None, None, **fields)
        profile._sampler, profile._arrays = sampler, None
        return profile

    def _read(self):
        if self._arrays is None:
            self._arrays = self._sampler.arrays()
        return self._arrays

    @property
    def z(self) -> np.ndarray:
        return self._read()[0]

    @property
    def q(self) -> np.ndarray:
        return self._read()[1]

    @property
    def qp(self) -> np.ndarray:
        return self._read()[2]

    def __repr__(self) -> str:
        return (f"WaveProfile(kind={self.kind!r}, speed={self.speed!r}, "
                f"slope0={self.slope0!r}, endpoint={self.endpoint!r}, "
                f"dslope0={self.dslope0!r})")


class _Sampler:
    """The samples of a dense shot at n uniform tau_k = linspace(0, tau_end,
    n)[k] (default n: about 2e-4 apart, 2001 to 500001), addressed by
    index, as one profile's (z, q, q'): z = z_of(tau) in ascending order
    (descending tau when reverse, which is ascending z for a backward
    shot), and q or q' pinned to 0.0 at the z indices pin_q, pin_qp.

    The shot's interpolants come as the arrays (t_old, h, y_old, F) of
    waves._Shot, with the step index last, and are laid out once, in one
    concatenation, as a (coefficient, component, step) array, coef[i, j]
    being the i-th term Horner adds for q (j = 0) or q' (j = 1): the
    coefficients from the top one down, then y_old.  _fill evaluates any
    taus with the operations of waves._interpolate in its order, both
    components together, each Horner term one take of a contiguous
    (component, step) slab: bit for bit what scipy's OdeSolution gives on
    the same steps.

    arrays() computes every sample, _SAMPLE_BLOCK at a time, straight into
    q and q' (a reversed block into its mirrored slots), so no temporary
    spans all the samples; gathering all of a block's terms at once made a
    temporary 8 times larger, which was slower.  z_at, q_at and search
    read single samples: profile_interpolator's knots, with the same
    expressions, so every value is the one arrays() holds at that index.
    """

    def __init__(self, shot, tau_end, reverse, z_of, pin_q=(), pin_qp=(),
                 n_samples=None):
        if n_samples is None:
            n_samples = int(np.clip(np.ceil(tau_end / 2e-4) + 1, 2001, 500001))
        self.size = n_samples
        self.tau_end = tau_end
        # linspace's step: its tau_k is k * step but for the last, tau_end
        self.step = tau_end / (n_samples - 1) if n_samples > 1 else nan
        self.reverse = reverse
        self.z_of = z_of
        self.pin_q = [k % n_samples for k in pin_q]
        self.pin_qp = [k % n_samples for k in pin_qp]
        self.t_old, self.h, y_old, F = shot.steps
        self.coef = np.concatenate((F[::-1, :2], y_old[None, :2]))

    def _fill(self, tau, v):
        """(q, q') at the taus into v, shape (2, len(tau))."""
        seg = np.searchsorted(self.t_old[1:], tau, side="left")
        x = (tau - self.t_old[seg]) / self.h[seg]
        x_pair = (x, 1 - x)
        v.fill(0.0)
        for i in range(len(self.coef) - 1):
            v += self.coef[i].take(seg, axis=1)
            v *= x_pair[i % 2]
        v += self.coef[-1].take(seg, axis=1)

    def arrays(self):
        """z, q, q' at every sample."""
        n = self.size
        tau = np.linspace(0.0, self.tau_end, n)
        out = np.empty((2, n))
        for lo in range(0, n, _SAMPLE_BLOCK):
            hi = min(lo + _SAMPLE_BLOCK, n)
            self._fill(tau[lo:hi], out[:, n - hi:n - lo][:, ::-1] if self.reverse
                       else out[:, lo:hi])
        q, qp = out
        q[self.pin_q] = 0.0
        qp[self.pin_qp] = 0.0
        return self.z_of(tau[::-1] if self.reverse else tau), q, qp

    def _tau_at(self, k):
        j = self.size - 1 - k if self.reverse else k
        return np.where(j == self.size - 1, self.tau_end, j * self.step)

    def z_at(self, k):
        return self.z_of(self._tau_at(k))

    def q_at(self, k):
        v = np.empty((2, len(k)))
        self._fill(self._tau_at(k), v)
        q = v[0]
        for pin in self.pin_q:
            q[k == pin] = 0.0
        return q

    def search(self, zc):
        """np.searchsorted(z, zc, side="right") without z: the index from
        the grid's arithmetic, then moved up past every z <= zc and down
        below every z > zc, each compared against z_at.  A NaN, which
        sorts last, gives size."""
        n = self.size
        z0, z_last = self.z_at(np.array([0, n - 1]))
        dz = (z_last - z0) / (n - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            guess = np.clip(np.floor((zc - z0) / dz) + 1.0, 0, n)
        k = np.where(np.isnan(zc), n, guess).astype(np.intp)
        while (up := (k < n) & (self.z_at(np.minimum(k, n - 1)) <= zc)).any():
            k += up
        while (down := (k > 0) & (self.z_at(np.maximum(k - 1, 0)) > zc)).any():
            k -= down
        return k

    def refusal(self):
        """profile_interpolator's message for these samples, or None.

        Every q and q' is finite when, at each step, the magnitudes of its
        coefficients sum to under 1e300: the steps cover [0, tau_end], as
        every waves._shoot's do, so a sample's x and 1 - x lie in [0, 1] up to
        rounding and no Horner partial sum can exceed that sum.  Every z is
        finite when z at both ends is, since z is affine in tau.  z is
        strictly increasing when the grid step exceeds 4 ulps of the
        largest |tau| and |z|: two consecutive taus lie at least step less
        1.5 ulps apart (each k * step is rounded by half an ulp, and
        tau_end differs from (n - 1) * step by under one), and rounding z
        narrows that gap by at most one ulp more.  Where either test fails,
        the samples are computed once and checked as arrays (_refusal), so
        the verdict is always the one the checks on arrays give.
        """
        ends = self.z_at(np.array([0, self.size - 1]))
        if (np.all(np.abs(self.coef).sum(axis=0) < 1e300) and np.all(np.isfinite(ends))
                and self.step > 4.0 * np.spacing(max(np.abs(ends).max(), self.tau_end))):
            return None
        z, q, _ = self.arrays()
        return _refusal(z, q)


def _refusal(z, q):
    """profile_interpolator's message for the samples z, q, or None."""
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(q))):
        return "profile samples must be finite"
    if np.any(z[1:] <= z[:-1]):
        return "profile z must be strictly increasing"
    return None


def _pchip_end(h0, h1, m0, m1):
    # Moler's one-sided three-point slope at an end knot (pchiptx.m), kept
    # within the shape of the data
    d = ((2*h0 + h1)*m0 - h0*m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.*abs(m0):
        return 3.*m0
    return d


def _pchip_slopes(hk, mk):
    """Fritsch-Butland PCHIP slopes at the knots of strictly increasing x,
    from hk = x[1:] - x[:-1] and the secants mk = (y[1:] - y[:-1]) / hk,
    in the operations and order of scipy's PchipInterpolator."""
    if len(hk) == 1:
        return np.array([mk[0], mk[0]])
    smk = np.sign(mk)
    condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2*hk[1:] + hk[:-1]
    w2 = hk[1:] + 2*hk[:-1]
    # where a division by zero occurs, condition holds and the slope is 0
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1/mk[:-1] + w2/mk[1:]) / (w1 + w2)
        inner = np.where(condition, 0.0, 1.0 / whmean)
    return np.concatenate(([_pchip_end(hk[0], hk[1], mk[0], mk[1])], inner,
                           [_pchip_end(hk[-1], hk[-2], mk[-1], mk[-2])]))


_WINDOW = np.arange(-1, 3)   # the knots seg-1 ... seg+2 a segment's cubic reads


def profile_interpolator(profile: WaveProfile):
    """Monotone-cubic (PCHIP) evaluator of q(z), flat-extended beyond the
    samples.

    Monotone interpolation keeps q within its sample range, so composite
    sup-norm comparisons cannot pick up interpolation overshoot.

    A call reads only the knots seg-1 ... seg+2 around each query's
    segment seg (found as scipy's PPoly finds it) and runs scipy's PCHIP
    formulas on that short sequence.  The cubic on seg reads the slopes at
    its two knots, and each slope reads only its two neighbours (the end
    slopes: the first or last three knots, gathered whenever an end
    segment is queried).  A gap between gathered windows changes only
    the slopes at window-edge knots, which no query reads.  So the values
    are bit for bit those of PchipInterpolator(z, q) on all the samples,
    evaluated in PPoly's Horner order, without building the cubic on every
    sample or importing scipy.interpolate.

    The knots come from an index-addressable source: a profile's arrays,
    or a shooting function's sampler, which computes just those samples
    and finds each query's segment on its grid, so that no array of all
    the samples is built.  Arrays are refused here for fewer than 2
    samples, a sample that is not finite, or z not strictly increasing; a
    sampler, which has at least 2001 samples, with the same messages in
    the same cases (_Sampler.refusal).
    """
    sampler = profile._sampler
    if sampler is None:
        z_all = np.asarray(profile.z, dtype=float)
        q_all = np.asarray(profile.q, dtype=float)
        if z_all.ndim != 1 or len(z_all) < 2 or q_all.shape != z_all.shape:
            raise ValueError("a profile needs at least 2 samples of z and q "
                             "of one length")
        refusal = _refusal(z_all, q_all)
        size, z_at, q_at = len(z_all), z_all.take, q_all.take

        def search(zc):
            return np.searchsorted(z_all, zc, side="right")
    else:
        refusal = sampler.refusal()
        size, z_at, q_at, search = (sampler.size, sampler.z_at, sampler.q_at,
                                    sampler.search)
    if refusal is not None:
        raise ValueError(refusal)
    lo, hi = z_at(np.array([0, size - 1]))
    q_lo, q_hi = q_at(np.array([0, size - 1]))
    last = size - 2

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        zc = np.clip(z, lo, hi).ravel()
        if zc.size == 0:
            return np.empty(z.shape)
        seg = np.clip(search(zc) - 1, 0, last)
        # the distinct knots in order, as np.unique gives them without
        # importing numpy.ma
        knots = np.sort(np.clip(seg[:, None] + _WINDOW, 0, last + 1), axis=None)
        knots = knots[np.concatenate(([True], knots[1:] != knots[:-1]))]
        x, y = z_at(knots), q_at(knots)
        hk = x[1:] - x[:-1]
        mk = (y[1:] - y[:-1]) / hk
        d = _pchip_slopes(hk, mk)
        # each query's segment among the gathered knots, and its Hermite
        # cubic as CubicHermiteSpline writes it
        i = np.searchsorted(knots, seg)
        h, slope = hk[i], mk[i]
        t = (d[i] + d[i + 1] - 2 * slope) / h
        c0, c1, c2, c3 = t / h, (slope - d[i]) / h - t, d[i], y[i]
        # PPoly's evaluate_poly1 sums 0.0 + c3 + c2*s + c1*(s*s)
        # + c0*((s*s)*s) left to right (its prefactor 1 is exact), and
        # returns nan for a nan query
        s = zc - x[i]
        ss = s * s
        out = 0.0 + c3
        out = out + c2 * s
        out = out + c1 * ss
        out = out + c0 * (ss * s)
        out = np.where(np.isnan(zc), np.nan, out).reshape(z.shape)
        out = np.where(z < lo, q_lo, out)
        out = np.where(z > hi, q_hi, out)
        return out

    return evaluate
