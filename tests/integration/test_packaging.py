"""``setup.py`` carries the package metadata and reads it without a network."""

import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]


def test_setup_prints_name_and_version_offline(tmp_path):
    # No proxy and no index: any attempt to fetch would fail the command.
    env = dict(
        os.environ,
        PIP_NO_INDEX="1",
        HTTP_PROXY="http://127.0.0.1:9",
        HTTPS_PROXY="http://127.0.0.1:9",
    )
    env.pop("PYTHONPATH", None)
    completed = subprocess.run(
        [sys.executable, str(ROOT / "setup.py"), "--name", "--version"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert completed.stdout.split() == ["repro", repro.__version__]
    assert list(tmp_path.iterdir()) == []
