"""Independent truncated-Fock reference for the figure quantities.

The parity superposition N(|eta e^{i theta}, M> + e^{i phi} |-eta e^{i theta}, M>)
is built here from its number-state amplitudes with numpy alone, without
any code from ``nbstates``, and Mandel Q and the X2 quadrature variance are
read off the vector.  The benchmark checks the package's closed forms and
series against these values.
"""
from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

# The vector is cut where |c_n|^2 has fallen below exp(-2 * TAIL_LOG_DROP) of
# its peak, far below the 1e-9 comparison bound.
TAIL_LOG_DROP = 40.0


def bare_log_magnitudes(M: int, eta: float) -> np.ndarray:
    """log |c_n| of the unnormalised NBS, up to where the tail is negligible.

    log C(M+n-1, n)^{1/2} eta^n is accumulated as a running sum of
    0.5 * log((M+k-1)/k) + log(eta), which needs no gamma function.
    """
    x = eta * eta
    mean = M * x / (1.0 - x)
    sd = math.sqrt(M * x) / (1.0 - x)
    n_max = int(mean + 40.0 * sd + 60.0)
    while True:
        k = np.arange(1, n_max + 1, dtype=np.float64)
        steps = 0.5 * np.log((M + k - 1.0) / k) + math.log(eta)
        logmag = np.concatenate(([0.0], np.cumsum(steps)))
        if logmag[-1] < logmag.max() - TAIL_LOG_DROP:
            return logmag
        n_max *= 2


def figure_values(M: int, eta: float, theta: float,
                  phis: Sequence[float]) -> List[Dict[str, float]]:
    """Mandel Q and Var(X2) of the superposition for each phi, by direct summation."""
    logmag = bare_log_magnitudes(M, eta)
    n = np.arange(logmag.size, dtype=np.float64)
    base = np.exp(logmag - logmag.max()) * np.exp(1j * theta * n)
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    up1 = np.sqrt(n[1:])
    up2 = np.sqrt(n[1:-1] * n[2:])
    out = []
    for phi in phis:
        amps = base * (1.0 + complex(math.cos(phi), math.sin(phi)) * sign)
        p = np.abs(amps) ** 2
        total = p.sum()
        p /= total
        mean = float((n * p).sum())
        variance = float(((n - mean) ** 2 * p).sum())
        ea = np.vdot(amps[:-1], up1 * amps[1:]) / total
        ea2 = np.vdot(amps[:-2], up2 * amps[2:]) / total
        out.append({
            "mandel_q": variance / mean - 1.0,
            "var_x2": 0.25 + 0.5 * (mean - ea2.real - 2.0 * ea.imag ** 2),
        })
    return out
