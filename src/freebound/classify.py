"""Long-time verdicts for finished trajectories.

Rule order (finite-horizon proxies for the t -> infinity taxonomy):

1. |beta| < c0 and h reached l_star + MARGIN at any recorded time:
   Spreading.  This is the rigorous spreading certificate: a front beyond
   the critical length can never stop.
2. sup u and h' both below their cutoffs, with h at most l_star + MARGIN
   when l_star exists: Vanishing.  This is a heuristic read at the end of
   the run; vanishing_certificate is the rigorous test that backs it, and
   the threshold drivers stop their runs at it.
3. beta >= c0: sample the final profile in a window moving at
   c = (beta - c0 + c_tilde)/2.  Within EPS_ONE of 1: VirtualSpreading.
   Otherwise sup u < EPS_VAN with the front still advancing at >= EPS_H:
   VirtualVanishing.
4. Anything else: Undetermined.

Rules 2-3 are heuristic with documented tolerances; virtual verdicts are
reserved for beta >= c0.

vanishing_certificate restarts the Du & Lin (2010) upper-solution argument
at any time T: it bounds the final front by H and proves vanishing when
H < L for some L < l_star.  It needs |beta| < c0, as l_star does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import EigenProblem, principal_eigenvalue
from .stefan import ProblemSpec, Trajectory

__all__ = ["Classification", "classify", "vanishing_candidates",
           "vanishing_certificate"]

MARGIN = 0.05
EPS_VAN = 1e-3
EPS_H = 1e-3
EPS_ONE = 0.05
WINDOW_HALF_WIDTH = 5.0
CANDIDATE_LENGTHS = 19  # lengths L in (h, l_star) vanishing_certificate tries


@dataclass(frozen=True)
class Classification:
    verdict: str  # Spreading | Vanishing | VirtualSpreading | VirtualVanishing | Undetermined
    evidence: dict


def classify(traj: Trajectory, spec: ProblemSpec,
             lstar: float | None = None,
             ctilde: float | None = None) -> Classification:
    c0 = spec.nonlinearity.c0
    beta = spec.beta
    h_end = float(traj.h[-1])
    hp_end = float(traj.hprime[-1])
    sup_end = float(traj.supu[-1])
    evidence = {
        "h_final": h_end,
        "hprime_final": hp_end,
        "supu_final": sup_end,
        "lstar": lstar,
        "window": None,
        "rule": None,
    }

    if abs(beta) < c0 and lstar is not None and np.any(traj.h >= lstar + MARGIN):
        evidence["rule"] = "front-beyond-critical-length"
        return Classification("Spreading", evidence)

    if (sup_end < EPS_VAN and hp_end < EPS_H
            and (lstar is None or h_end <= lstar + MARGIN)):
        evidence["rule"] = "decayed-and-stalled"
        return Classification("Vanishing", evidence)

    if beta >= c0 and ctilde is not None:
        c = (beta - c0 + ctilde) / 2.0
        t_end, x_snap, u_snap = traj.snapshots[-1]
        center = c * t_end
        lo, hi = center - WINDOW_HALF_WIDTH, center + WINDOW_HALF_WIDTH
        evidence["window"] = (lo, hi)
        if lo < 0.0 or hi > h_end:
            evidence["rule"] = "moving-window-outside-domain"
            return Classification("Undetermined", evidence)
        xw = np.linspace(lo, hi, 101)
        uw = np.interp(xw, x_snap, u_snap)
        if np.max(np.abs(uw - 1.0)) <= EPS_ONE:
            evidence["rule"] = "moving-window-near-one"
            return Classification("VirtualSpreading", evidence)
        if sup_end < EPS_VAN and hp_end >= EPS_H:
            evidence["rule"] = "decayed-but-front-advancing"
            return Classification("VirtualVanishing", evidence)

    evidence["rule"] = "no-rule-fired"
    return Classification("Undetermined", evidence)


def vanishing_candidates(spec: ProblemSpec, lo: float, lstar: float) -> tuple:
    """Eigen data (L, zeta1(L), x, phi, K) for CANDIDATE_LENGTHS lengths L
    evenly inside (lo, lstar); none of it depends on mu or on the initial
    amplitude.

    phi is the max-normalised principal eigenfunction on (0, L) sampled at
    x, and K = f'(0) |phi|_1, plus max(beta - a/b, 0) phi(0) when b > 0.
    A length whose computed zeta1 is not positive (round-off next to
    l_star) is left out.
    """
    m = spec.nonlinearity.fp0
    rows = []
    for L in np.linspace(lo, lstar, CANDIDATE_LENGTHS + 2)[1:-1]:
        eig = principal_eigenvalue(EigenProblem(float(L), spec.beta, spec.a,
                                                spec.b, m))
        if eig.zeta1 <= 0.0:
            continue
        phi = eig.eigenfunction
        K = m * float(np.trapezoid(phi, eig.x))
        if spec.b > 0.0:
            K += max(spec.beta - spec.a / spec.b, 0.0) * float(phi[0])
        rows.append((float(L), eig.zeta1, eig.x, phi, K))
    return tuple(rows)


def vanishing_certificate(h: float, x: np.ndarray, u: np.ndarray,
                          spec: ProblemSpec, lstar: float,
                          candidates: tuple | None = None) -> tuple:
    """Slack L - H of the Vanishing certificate for the state (h, x, u) at
    some time T, and the L it used: the largest slack over the candidates
    with L > h (default: vanishing_candidates on (h, lstar)), or
    (-inf, nan) when there is none.

    For h < L < l_star, zeta = zeta1(L) > 0 and every admissible f has
    f(u) <= f'(0) u (validate checks it), so w = M exp(-zeta (t - T)) phi,
    with M = max u/phi over the points where phi > 0, is an upper solution
    while h(t) < L.  Integrating the PDE over (0, h(t)) and using the
    Stefan condition h' = -mu u_x(t, h) gives

        h(t) <= H = h + mu (int u dx + M K / zeta),

    since -u_x(t, 0) + beta u(t, 0) is <= 0 for b = 0 and equals
    (beta - a/b) u(t, 0) for b > 0.  So H < L means h never reaches L and
    the run vanishes.  The bound holds for the PDE; like rule 1 of
    classify, it is read off the discrete state.
    """
    if candidates is None:
        candidates = vanishing_candidates(spec, h, lstar)
    mass = float(np.trapezoid(u, x))
    best = (-np.inf, np.nan)
    for L, zeta, xe, phi, K in candidates:
        if L <= h:
            continue
        phi_x = np.interp(x, xe, phi)
        inside = phi_x > 0.0
        M = float(np.max(u[inside] / phi_x[inside]))
        slack = float(L - (h + spec.mu * (mass + M * K / zeta)))
        if slack > best[0]:
            best = (slack, L)
    return best
