"""Host-memory footprint of the bulk-data apps (tracemalloc peak).

The simulator runs one image at a time; the others stay parked inside
blocking calls with their frames alive. A buffer an image keeps past its
last use therefore costs P times its size, and an input every image
regenerates costs P copies. These bounds catch either regression.
"""

import tracemalloc

from repro.apps.fft import run_fft
from repro.apps.hpl import run_hpl
from repro.caf import run_caf

# Peak traced bytes over the FFT input's bytes, 8 images at m = 2^16.
# Buffers freed at their last use measure ~4.2x on either backend; holding
# all six per-image arrays to the end of the body measures ~9x.
FFT_PEAK_PER_INPUT = 6.0
# Peak traced bytes over one n x n matrix, 8 images: one shared matrix
# plus the distributed copies measures ~3x; a matrix per image ~10x.
HPL_PEAK_PER_MATRIX = 4.0


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_fft_frees_buffers_at_last_use(backend):
    p, m = 8, 1 << 16
    run_caf(run_fft, p, backend=backend, m=1 << 8)  # import everything first
    run, peak = traced_peak(run_caf, run_fft, p, backend=backend, m=m)
    if backend == "gasnet":
        # Segments are np.zeros: traced at full size, but untouched pages
        # cost no RSS, so they are not app buffers.
        world = run.cluster._shared["gasnet-world"]
        peak -= sum(seg.nbytes for seg in world.segments)
    assert peak / (16 * m) < FFT_PEAK_PER_INPUT


def test_hpl_builds_one_matrix_per_run():
    p, n, block = 8, 256, 16
    run_caf(run_hpl, p, backend="mpi", n=32, block=block)  # import everything first
    _, peak = traced_peak(run_caf, run_hpl, p, backend="mpi", n=n, block=block)
    assert peak / (8 * n * n) < HPL_PEAK_PER_MATRIX

