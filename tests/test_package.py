"""The package's public names, and what importing a module loads."""

import subprocess
import sys

import resvd


def test_every_exported_name_resolves_once():
    assert len(resvd.__all__) == len(set(resvd.__all__))
    missing = [name for name in resvd.__all__ if not hasattr(resvd, name)]
    assert missing == []


def test_compensation_does_not_load_the_calibration_pass():
    # compensation is linear algebra on one weight and its whitening matrix,
    # an array; the calibration pass and its file handling stay unloaded.
    probe = "import sys, resvd.compensation; print('resvd.calibration' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout == "False\n"
