#!/usr/bin/env python3
"""Three routes to the distance between spectra.

For self-adjoint matrices the distance between unitary orbits equals the
bottleneck matching of the eigenvalue lists, attained by sorting; the same
value is the infinity-Wasserstein distance between the spectral counting
measures.  For unitary matrices equality still holds; for general normal
matrices the orbit distance can drop below the matching value, so the
package reports both without claiming equality.
"""

import numpy as np

from cstarlab.rng import stream
from cstarlab.transport import (
    bottleneck_brute_force,
    matching_distance,
    random_hermitian,
    random_normal,
    random_unitary,
    sorted_matching_value,
    spectral_measure,
    unitary_distance,
    winf_pair,
)

rng = stream(42)

# --- self-adjoint pairs: all three routes agree ------------------------------

print("self-adjoint pairs: delta (sorted) vs d_U (aligned eigenbases) vs W_inf (transport)")
for n in (2, 4, 6):
    a, b = random_hermitian(n, rng), random_hermitian(n, rng)
    ev_a, ev_b = np.linalg.eigvalsh(a.array), np.linalg.eigvalsh(b.array)
    delta = matching_distance(ev_a, ev_b)
    res = unitary_distance(a, b, tol=1e-8)
    w = winf_pair(a, b)
    print(f"  n={n}: sorted {sorted_matching_value(ev_a, ev_b):.8f}  "
          f"delta {delta:.8f}  d_U {res.value:.8f}  W_inf {w:.8f}")

# the reported unitary is a certificate: conjugating by it achieves the value
achieved = np.linalg.svd(a.array - res.unitary @ b.array @ res.unitary.conj().T,
                         compute_uv=False)[0]
print(f"certificate check at n=6: |a - u b u*| = {achieved:.10f} = d_U")

# --- unitary pairs: circle spectra, equality persists ------------------------

print("\nunitary pairs")
for n in (2, 3, 4):
    a, b = random_unitary(n, rng), random_unitary(n, rng)
    delta = matching_distance(a.spectrum(), b.spectrum())
    res = unitary_distance(a, b, tol=1e-8)
    print(f"  n={n}: delta {delta:.8f}  d_U {res.value:.8f}  gap {res.value - delta:+.2e}")

# --- general normal pairs: a table, no equality claim ------------------------

print("\nnormal pairs (d_U <= delta always; equality is not asserted)")
for trial in range(5):
    a, b = random_normal(3, rng), random_normal(3, rng)
    delta = matching_distance(a.spectrum(), b.spectrum())
    res = unitary_distance(a, b, tol=1e-8)
    print(f"  trial {trial}: delta {delta:.6f}  d_U {res.value:.6f}  "
          f"gap {res.value - delta:+.2e}")

# --- spectral measures feeding the transport route ----------------------------

proj = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
sm = spectral_measure(proj)
print("\nspectral measure of a rank-3 projection in M_5:",
      [(complex(at), str(w)) for at, w in zip(sm.atoms, sm.weights)])
print("brute-force bottleneck of {0,1} vs {1/2,1/2}:",
      bottleneck_brute_force([0.0, 1.0], [0.5, 0.5]))
