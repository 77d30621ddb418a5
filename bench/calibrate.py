"""Host-speed calibration: times a fixed kernel each time it is asked.

The kernel mixes the kinds of work the benchmark's jobs do: a scalar
interpreter loop with float formatting (RK4 steps, CSV writing), many numpy
calls on small arrays (``GridSpec.integrate`` on 33^2-65^2), and whole-array
numpy arithmetic on a 257^2 slice (the residual evaluators). It imports
nothing from dirachydro, so a change to the program never moves it; only
the host's speed does.

The process warms up once, then reads stdin and answers every line with
the kernel's wall time in seconds, one per line, until stdin closes.

    python bench/calibrate.py
"""

import sys
import time

import numpy as np

_rng = np.random.default_rng(0)
_BIG = _rng.standard_normal((2, 257, 257))
_SMALL = _rng.standard_normal((49, 49))


def kernel():
    """Run the fixed mix once; return its wall time in seconds."""
    start = time.perf_counter()
    total = 0.0
    for i in range(60_000):
        total += (i * 0.5) ** 0.5
    text = ",".join(format(v, ".17g") for v in _BIG[0, :20].ravel())
    total += len(text)
    for _ in range(3_750):
        total += float(np.sum(_SMALL * _SMALL[::-1]))
    for _ in range(30):
        values = np.gradient(_BIG[0], 0.02, axis=0) * _BIG[1] + np.sin(_BIG[0]) * np.exp(-_BIG[1] ** 2)
        total += float(values.sum())
    if not np.isfinite(total):
        raise ArithmeticError("calibration kernel lost its value")
    return time.perf_counter() - start


def main():
    kernel()
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
