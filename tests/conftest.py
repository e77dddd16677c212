import os

# One BLAS thread per process: the solver's many small eigh and LU calls slow
# down many times over when BLAS threads contend for shared cores.  This runs
# before numpy is first imported, so the limits take effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from momentpde.indices import TruncationDegrees
from momentpde.models import InitialData


@pytest.fixture(scope="session")
def u0():
    return InitialData.default()


@pytest.fixture(scope="session")
def deg222():
    return TruncationDegrees(2, 2, 2)


@pytest.fixture(scope="session")
def deg422():
    return TruncationDegrees(4, 2, 2)
