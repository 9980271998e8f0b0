import numpy as np
import pytest

from fadekey import reconcile
from reference_bp import reference_decode


@pytest.fixture(scope="session")
def code8():
    return reconcile.ldpc_generate(8, seed=8)


@pytest.fixture(scope="session")
def code400():
    return reconcile.ldpc_generate(400, seed=400)


@pytest.fixture(scope="session")
def code4096():
    # shared by the long-block decoder and system-level tests; the PEG
    # construction is the slow part, so grow it once per session
    return reconcile.ldpc_generate(4096, seed=4096)


@pytest.fixture(scope="session")
def oracle_decodes(code400):
    # the seed-2024 all-zero-coset decodes of the Python reference BP, as
    # (llr, (success, iterations, hard bits)); the reference is slow, so the
    # tests that compare the packaged kernel against it share one run
    alist = reconcile.to_alist(code400)
    rng = np.random.default_rng(2024)
    decodes = []
    for _ in range(20):
        llr = rng.normal(1.2, 1.8, size=400)  # all-zero codeword over AWGN-ish noise
        decodes.append((llr, reference_decode(alist, np.zeros(200, np.uint8), llr)))
    return decodes


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
