"""The package runs on numpy alone."""

import subprocess
import sys
from pathlib import Path

import cmte


def test_import_loads_no_scipy():
    src = str(Path(cmte.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cmte, cmte.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
