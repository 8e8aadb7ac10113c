"""Reference eigenvalues for the ``landau`` workload, by banded bisection.

    python3 bench/reference.py              # 129^2, about 9 minutes on 2 cores
    python3 bench/reference.py --counts 65  # about 10 seconds

Run by hand, never inside timed runs.  It stores the full twisted operator
in LAPACK's Hermitian band form (bandwidth n in row-major order) and computes
every eigenvalue below ``GAP`` with ``scipy.linalg.eig_banded``
(``select="v"``: band reduction, then bisection): no rotation sectors and no
sparse LU.  It then asks ``lowest_eigenvalues`` for as many values and prints
the largest difference.  The grid and tau are the ``landau`` workload's;
``--counts`` only shrinks the grid for a quick check.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from heislab.grid import BoxGrid  # noqa: E402
from heislab.spectral import assemble_twisted, lowest_eigenvalues  # noqa: E402
from workloads import LANDAU_GRID, WORKLOADS  # noqa: E402

GAP = 22.0  # in a gap of the spectrum at 129^2 and at 65^2


def band_eigenvalues(op, bandwidth: int, upper: float) -> np.ndarray:
    """Eigenvalues of Hermitian ``op`` in (-inf, upper], from its upper band form."""
    coo = op.tocoo()
    keep = coo.row <= coo.col
    band = np.zeros((bandwidth + 1, op.shape[0]), dtype=complex)
    band[bandwidth + coo.row[keep] - coo.col[keep], coo.col[keep]] = coo.data[keep]
    return scipy.linalg.eig_banded(
        band, eigvals_only=True, select="v", select_range=(-np.inf, upper)
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--counts", type=int, default=LANDAU_GRID["counts"])
    args = ap.parse_args()
    n, half = args.counts, LANDAU_GRID["half"]
    tau = WORKLOADS["landau"].solves[0][0]
    op = assemble_twisted(tau, BoxGrid((-half, -half), (half, half), (n, n)))
    t0 = time.perf_counter()
    ref = band_eigenvalues(op, n, GAP)
    t_band = time.perf_counter() - t0
    vals, _ = lowest_eigenvalues(op, ref.size)
    diff = float(np.max(np.abs(vals - ref)))
    print(f"{n}^2, tau={tau:g}: {ref.size} eigenvalues below {GAP:g}")
    print(f"banded bisection {t_band:.1f} s; largest difference from lowest_eigenvalues {diff:.2e}")
    return 0 if diff <= 1e-9 else 1


if __name__ == "__main__":
    sys.exit(main())
