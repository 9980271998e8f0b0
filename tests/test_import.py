"""Package import footprint: ``import fadekey`` stays light for every CLI call."""

import os
import subprocess
import sys
from pathlib import Path

import fadekey


def test_import_skips_heavy_modules():
    # scipy.stats and scipy.spatial each cost more than the rest of the
    # package import, and nothing needs them until a KSG estimate runs;
    # scipy.signal (~1 s) is not needed at all: the hash's FFT product
    # uses numpy.fft; the MAC is the standard library's hmac, so the
    # third-party cryptography package is not imported either
    src = str(Path(fadekey.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, fadekey; print(*(m for m in ('scipy.stats', 'scipy.spatial', 'scipy.signal', 'cryptography') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
