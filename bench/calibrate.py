"""A fixed reference kernel that measures the machine's current speed.

The kernel uses only Python and numpy, never fermitope, so no change to
the program can make it faster or slower.  It mixes the kinds of work the
workloads do: an interpreter loop, many small numpy calls, one batched
LAPACK call and gathers over a sector-sized complex vector, about a
quarter of the time each.
"""

import time

import numpy as np

_rng = np.random.default_rng(0)
_small = _rng.standard_normal((150, 6, 6))
_small = _small + _small.transpose(0, 2, 1)
_batch = _rng.standard_normal((500, 6, 6))
_batch = _batch + _batch.transpose(0, 2, 1)
_vector = _rng.standard_normal(3432) + 1j * _rng.standard_normal(3432)
_pairs = _rng.integers(3432, size=(100, 2, 1716))
_signs = _rng.choice((-1.0, 1.0), size=1716)


def kernel() -> None:
    acc = 0
    for i in range(20000):
        acc += (i * i) % 7
    for matrix in _small:
        np.linalg.eigvalsh(matrix)
    np.linalg.eigvalsh(_batch)
    for src, dst in _pairs:
        np.sum(_vector[dst].conj() * _signs * _vector[src])


def sample(seconds: float = 0.0) -> float:
    """The kernel's mean time over at least three runs and ``seconds``.

    One untimed run comes first: it brings the kernel's data back into the
    caches that the program's last task filled, so the sample depends
    less on that task.
    """
    kernel()
    runs, total = 0, 0.0
    while runs < 3 or total < seconds:
        began = time.perf_counter()
        kernel()
        total += time.perf_counter() - began
        runs += 1
    return total / runs
