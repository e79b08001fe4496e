"""The package's public surface and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import genopt


def test_all_names_resolve_and_are_unique():
    assert len(genopt.__all__) == len(set(genopt.__all__))
    for name in genopt.__all__:
        assert hasattr(genopt, name), name


def _modules_loaded_by(statement):
    # a fresh interpreter, so nothing an earlier test imported counts
    src = str(Path(genopt.__file__).resolve().parents[1])
    code = ("import sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    return set(out.split())


def test_import_genopt_loads_no_logging_or_pool():
    loaded = _modules_loaded_by("import genopt")
    assert "genopt.gen" in loaded
    assert not loaded & {"logging", "multiprocessing"}


def test_import_cli_loads_no_pool():
    loaded = _modules_loaded_by("import genopt.cli")
    assert "genopt.cli" in loaded
    assert not loaded & {"multiprocessing", "concurrent.futures.process"}
