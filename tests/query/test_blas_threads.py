"""Exact answers do not depend on the BLAS thread count.

The anatomy contraction ``sens_indicator @ st_matrix.T`` is a dgemm.
Its operands hold small integers, so every partial sum is exact in
float64 and the way OpenBLAS splits the product across threads cannot
change a bit of the result.  This pins that contract: the same exact
workload is answered in one process with one BLAS thread and in another
with two, and the answers are compared as ``float.hex`` strings.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.anatomize import anatomize
from repro.dataset.census import CensusDataset
from repro.query.estimators import AnatomyEstimator
from repro.query.workload import make_workload

# 600 groups and 300 queries: each chunk's dgemm is 256 x 50 x 600,
# well above the size at which OpenBLAS starts splitting the product.
SCRIPT = """\
from repro.core.anatomize import anatomize
from repro.dataset.census import CensusDataset
from repro.query.estimators import AnatomyEstimator
from repro.query.workload import make_workload

table = CensusDataset(n=6000, seed=0).occ(3)
estimator = AnatomyEstimator(anatomize(table, l=10, seed=0))
workload = make_workload(table.schema, 3, 0.1, 300, seed=3)
for value in estimator.estimate_workload(workload):
    print(float(value).hex())
"""


def _answers(threads: str) -> list[str]:
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=source_root)
    return subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, check=True,
        capture_output=True, text=True, timeout=120).stdout.split()


def test_exact_answers_identical_under_one_and_two_blas_threads():
    one, two = _answers("1"), _answers("2")
    assert len(one) == 300
    assert one == two
    table = CensusDataset(n=6000, seed=0).occ(3)
    estimator = AnatomyEstimator(anatomize(table, l=10, seed=0))
    workload = make_workload(table.schema, 3, 0.1, 300, seed=3)
    assert one == [float(estimator.estimate(q)).hex() for q in workload]
    assert any(float.fromhex(value) > 0.0 for value in one)
