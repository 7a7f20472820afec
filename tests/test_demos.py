"""The demos run to completion against the library they document.

Each runs in its own interpreter, as a reader would start it, from an empty
working directory so that nothing it writes lands in the checkout.  Demos 03
and 04 call the verification API directly (``apriori_report``,
``weak_residual``, ``refinement_study`` with an eps ladder); together they
take a few seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import capmix

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["01_coefficient_laws.py",
                                  "02_entropy_transform.py",
                                  "03_reference_run.py",
                                  "04_refinement_study.py",
                                  "05_config_files.py"])
def test_demo_runs(demo, tmp_path):
    # The child imports the same capmix these tests import.
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(capmix.__file__)))
    done = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
