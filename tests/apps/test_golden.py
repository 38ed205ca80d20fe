"""Bit-exact results for the bulk-data apps.

The other app tests compare against references with ``np.allclose``, so
a host-side refactor that reorders floating-point work would still pass
them. Here each distributed result must equal, byte for byte, a serial
replay of the same numpy calls on the same per-image array shapes, run
in the same process (so both sides share one numpy and one BLAS). The
virtual makespans are pinned exactly: they count modelled flops and
bytes, not host arithmetic, so they do not depend on the host.
"""

import numpy as np
import pytest

from repro.apps.fft import make_input, run_fft
from repro.apps.hpl import make_matrix, run_hpl
from repro.caf import run_caf

FFT_MAKESPAN = {
    ("mpi", 4): 4.746799999999997e-05,
    ("mpi", 8): 5.4139999999999925e-05,
    ("gasnet", 4): 3.289199999999998e-05,
    ("gasnet", 8): 4.080399999999995e-05,
}
HPL_MAKESPAN = {"mpi": 8.708799999999999e-05, "gasnet": 0.00013212666666666674}


def fft_replay(p, m, seed):
    """The four-step FFT of ``run_fft``, one image slab at a time."""
    log_m = int(np.log2(m))
    n1 = 1 << (log_m // 2)
    n2 = m // n1
    a = make_input(seed, m).reshape(n1, n2)
    at = np.ascontiguousarray(a.T)
    rows = n2 // p
    bt = []
    for r in range(p):
        slab = np.fft.fft(np.ascontiguousarray(at[r * rows : (r + 1) * rows]), axis=1)
        j2 = np.arange(r * rows, (r + 1) * rows)[:, None]
        k1 = np.arange(n1)[None, :]
        bt.append(slab * np.exp(-2j * np.pi * (j2 * k1) / m))
    b = np.ascontiguousarray(np.concatenate(bt).T)
    rows = n1 // p
    c = np.concatenate(
        [np.fft.fft(np.ascontiguousarray(b[r * rows : (r + 1) * rows]), axis=1) for r in range(p)]
    )
    return np.ascontiguousarray(c.T).reshape(-1)


def hpl_replay(n, block, seed):
    """The blocked LU of ``run_hpl`` on all column blocks in one process."""
    a = make_matrix(seed, n)
    nblocks = n // block
    blocks = [a[:, j * block : (j + 1) * block].copy() for j in range(nblocks)]
    panel = np.empty((n, block))
    for k in range(nblocks):
        row0 = k * block
        sub = blocks[k][row0:, :]
        for j in range(block):
            sub[j + 1 :, j] /= sub[j, j]
            sub[j + 1 :, j + 1 :] -= np.outer(sub[j + 1 :, j], sub[j, j + 1 :])
        panel[...] = blocks[k]
        l11 = np.tril(panel[row0 : row0 + block, :], -1) + np.eye(block)
        l21 = panel[row0 + block :, :]
        for blk in blocks[k + 1 :]:
            u12 = np.linalg.solve(l11, blk[row0 : row0 + block, :])
            blk[row0 : row0 + block, :] = u12
            blk[row0 + block :, :] -= l21 @ u12
    return blocks


@pytest.mark.parametrize("nranks", [4, 8])
def test_fft_spectrum_bits(backend, nranks):
    m = 1 << 12
    run = run_caf(run_fft, nranks, backend=backend, m=m, seed=7)
    chunks = run.cluster._shared["fft-output"]
    got = np.concatenate([chunks[r] for r in range(nranks)])
    assert got.tobytes() == fft_replay(nranks, m, 7).tobytes()
    assert run.results[0].elapsed == FFT_MAKESPAN[backend, nranks]


def test_hpl_factor_bits(backend):
    n, block = 96, 16
    run = run_caf(run_hpl, 4, backend=backend, n=n, block=block, seed=2)
    factors = run.cluster._shared["hpl-factors"]
    got = {j: blk for mine in factors.values() for j, blk in mine.items()}
    want = hpl_replay(n, block, 2)
    assert sorted(got) == list(range(len(want)))
    for j, blk in enumerate(want):
        assert got[j].tobytes() == blk.tobytes(), f"column block {j}"
    assert run.results[0].elapsed == HPL_MAKESPAN[backend]
