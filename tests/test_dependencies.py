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


def test_import_starts_no_thread_and_loads_no_pool():
    # the Monte-Carlo pool imports concurrent.futures (which imports
    # logging) inside oracle_report, so solving never pays for it
    src = str(Path(cmte.__file__).resolve().parent.parent)
    code = ("import sys, threading; sys.path.insert(0, sys.argv[1]); import cmte, cmte.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'logging')), threading.active_count())")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[] 1"
