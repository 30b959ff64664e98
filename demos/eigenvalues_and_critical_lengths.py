#!/usr/bin/env python3
"""Principal eigenvalues on a growing interval and the critical lengths.

The persistence of a population on a fixed interval (0, ell) is governed
by the sign of the principal eigenvalue zeta1(ell) of the linearization:
positive for short intervals (extinction pressure wins), negative for
long ones.  The length l_star where zeta1 crosses zero is the certificate
the front solver uses: once h(t) > l_star, spreading is guaranteed.

For the Dirichlet boundary (b = 0) everything is explicit:
zeta1 = beta^2/4 + pi^2/ell^2 - f'(0), l_star = 2 pi / sqrt(c0^2 - beta^2).
For the mixed boundary zeta1 needs a transcendental solve, but the
critical lengths stay explicit: at zeta1 = 0 the transformed mode has
wave number k = sqrt(c0^2 - beta^2)/2, and
l_star = (pi/2 + atan2(a - b beta/2, b k)) / k (l_substar at a in place
of a - b beta/2).  This script shows both.
"""

import numpy as np

import freebound as fb

m = 1.0  # logistic linearization f'(0)

print("zeta1(ell) for the Dirichlet boundary (a=1, b=0), m = 1")
print(f"{'ell':>6} | " + " | ".join(f"beta={b:+.1f}" for b in (-1.5, 0.0, 1.5)))
for ell in (0.5, 1.0, 2.0, np.pi, 5.0, 10.0):
    row = [fb.principal_eigenvalue(
        fb.EigenProblem(ell=ell, beta=b, a=1.0, b=0.0, m=m)).zeta1
        for b in (-1.5, 0.0, 1.5)]
    print(f"{ell:6.3f} | " + " | ".join(f"{z:9.4f}" for z in row))

print("\ncritical lengths, Dirichlet: l_star = 2 pi / sqrt(c0^2 - beta^2)")
for beta in (0.0, 0.5, 1.0, 1.5, 1.9):
    ls = fb.critical_length(beta, 1.0, 0.0, m)
    closed = 2.0 * np.pi / np.sqrt(4.0 - beta * beta)
    print(f"  beta={beta:4.1f}: l_star = {ls:.8f}   (closed form {closed:.8f})")

print("\nmixed boundary a=0.7, b=1.3: both lengths reported, no ordering")
print("assumed between them, each beside its closed form (pi/2 + atan2(A, b k))/k")
print("with k = sqrt(c0^2 - beta^2)/2 and A = a - b beta/2 (A = a for l_substar):")
for beta in (0.0, 0.8, 1.5):
    ls = fb.critical_length(beta, 0.7, 1.3, m)
    lsub = fb.critical_length_no_advection(beta, 0.7, 1.3, m)
    k = np.sqrt(4.0 * m - beta * beta) / 2.0
    closed = (np.pi / 2.0 + np.arctan2(0.7 - 1.3 * beta / 2.0, 1.3 * k)) / k
    closed_sub = (np.pi / 2.0 + np.arctan2(0.7, 1.3 * k)) / k
    print(f"  beta={beta:4.1f}: l_star = {ls:.6f} ({closed:.6f}),"
          f"  l_substar = {lsub:.6f} ({closed_sub:.6f})")

print("\nRobin case with strong drift (beta > 2a/b): the principal mode is")
print("boundary-trapped (hyperbolic branch), pushing zeta1 below the")
print("large-ell Dirichlet limit beta^2/4 - m:")
p = fb.EigenProblem(ell=40.0, beta=1.8, a=0.2, b=1.0, m=m)
z = fb.principal_eigenvalue(p).zeta1
print(f"  zeta1(40) = {z:.6f}  vs  beta^2/4 - m = {1.8**2/4 - m:.6f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ells = np.linspace(0.4, 12.0, 300)
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for beta in (0.0, 1.0, 1.5):
        z = [fb.principal_eigenvalue(
            fb.EigenProblem(ell=L, beta=beta, a=1.0, b=0.0, m=m)).zeta1
            for L in ells]
        ax.plot(ells, z, label=f"beta = {beta}")
        ax.axvline(fb.critical_length(beta, 1.0, 0.0, m), ls=":", alpha=0.5)
    ax.axhline(0.0, color="k", lw=0.8)
    ax.set_ylim(-2, 6)
    ax.set_xlabel("ell")
    ax.set_ylabel("zeta1")
    ax.legend()
    ax.set_title("principal eigenvalue vs interval length (Dirichlet)")
    fig.tight_layout()
    fig.savefig("eigenvalues_and_critical_lengths.png", dpi=130)
    print("\nwrote eigenvalues_and_critical_lengths.png")
except ImportError:
    print("\n(matplotlib not installed: skipping the figure)")
