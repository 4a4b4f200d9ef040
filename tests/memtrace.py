"""Memory accounting shared by the tests that pin a peak or a refusal.

`SEVEN_GIB` and `SIXTY_FOUR_MIB` stand in for `os.sysconf` on a machine of that much
physical memory.  `traced_peak` runs a callable under `tracemalloc` and counts, beside the
traced peak, what LAPACK holds outside the trace while numpy's `eigvalsh`, `eigh` or `solve`
runs: numpy copies the input matrix for LAPACK with its own malloc, which `tracemalloc`
does not see.  That is the measure the sectored column of `cli.COMMAND_MATRICES` was taken
with.
"""

import tracemalloc

import numpy as np

SEVEN_GIB = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (7 << 30) // 4096}
SIXTY_FOUR_MIB = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (64 << 20) // 4096}

# the n x n blocks outside the trace while LAPACK runs on one n x n input: its copy of the
# input, and for eigh also ?syevd's or ?heevd's work arrays (two blocks for the eigenvectors'
# divide and conquer) and the eigenvector output, which numpy allocates before LAPACK runs
# and which is counted here because the traced memory at the call does not hold it yet
UNTRACED_BLOCKS = {"eigvalsh": 1, "eigh": 4, "solve": 1}


def traced_peak(monkeypatch, fn):
    """(fn(), peak bytes, calls) of one call of fn: the larger of tracemalloc's peak and, at
    each `eigvalsh`, `eigh` and `solve`, the traced memory then plus UNTRACED_BLOCKS of its
    input's n x n blocks (one member of a stack, which LAPACK takes one at a time); calls
    names those functions in the order they ran."""
    at_calls, calls = [], []

    def counted(name, original):
        def call(a, *args, **kwargs):
            block = a.shape[-1] ** 2 * a.itemsize
            at_calls.append(tracemalloc.get_traced_memory()[0] + UNTRACED_BLOCKS[name] * block)
            calls.append(name)
            return original(a, *args, **kwargs)
        return call

    originals = {name: getattr(np.linalg, name) for name in UNTRACED_BLOCKS}
    for name, original in originals.items():
        monkeypatch.setattr(np.linalg, name, counted(name, original))
    tracemalloc.start()
    try:
        result = fn()
        peak = max([tracemalloc.get_traced_memory()[1]] + at_calls)
    finally:
        tracemalloc.stop()
        for name, original in originals.items():
            monkeypatch.setattr(np.linalg, name, original)
    return result, peak, calls
