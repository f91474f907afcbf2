"""Machine-speed calibration for timings taken on a shared host.

Other tenants of the host slow this benchmark's process by up to a third
for stretches of seconds to minutes, without any sign inside the guest
(no steal time, no run queue). A fixed kernel of the same kind of work as
the simulator (Philox draws, small numpy arrays, a Python-level loop) is
timed just before and just after every sweep; dividing by its time removes
most of that drift. The kernel is part of the benchmark, not of the
program, so a change to the program does not move it.

A calibrated time is the raw time times ``REFERENCE_S`` over the kernel's
time: the time the sweep would take on a host where the kernel takes
``REFERENCE_S``.

Set-up times follow process start and imports, not warm numpy work, so they
have a kernel of their own: a fresh interpreter that imports numpy, timed
just after each set-up probe. Each probe's time is scaled by
``START_REFERENCE_S`` over its kernel's time, and the median is taken.
"""

import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.01
_ITERATIONS = 1500
START_REFERENCE_S = 0.12


def kernel() -> float:
    rng = np.random.Generator(np.random.Philox(7))
    acc = 0.0
    for _ in range(_ITERATIONS):
        a = rng.standard_normal((4, 15))
        b = np.abs(a) ** 2
        m, n = divmod(int(np.argmax(b)), 15)
        acc += float(b[m, n])
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def calibrated(raw: list, kernels: list) -> list:
    """Scale raw[i] to the reference host, using the kernel timings
    kernels[i] and kernels[i + 1] taken just before and after it."""
    return [t * 2 * REFERENCE_S / (kernels[i] + kernels[i + 1]) for i, t in enumerate(raw)]


def start_kernel_seconds(timeout: float) -> float:
    """Seconds from starting a fresh interpreter until it has imported numpy.

    Timed like a set-up probe: the child reads the shared monotonic clock
    when it is done, so the parent's wait for it to exit is not counted.
    """
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", "import time, numpy; "
                          "print(repr(time.perf_counter()))"],
                         stdout=subprocess.PIPE, text=True, check=True, timeout=timeout)
    return float(out.stdout) - start


def calibrated_setup(setups: list, kernels: list) -> float:
    """Set-up time scaled to a host where the start kernel takes
    ``START_REFERENCE_S``: the median over probes of setups[i] / kernels[i],
    each kernel timed just after its probe."""
    return START_REFERENCE_S * statistics.median(s / k for s, k in zip(setups, kernels))
