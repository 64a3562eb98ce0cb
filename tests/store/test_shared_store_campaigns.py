"""Concurrent CLI campaigns sharing one cache and one corpus directory.

Three ``repro campaign`` processes (one application each) write into the
same ``--cache-dir`` and ``--corpus-dir`` at once; merge-on-save must keep
every writer's records.  Before it, the last writer clobbered the others
and the shared cache held a single application's records.  Each shared
run is compared with a reference run of the same application into
private stores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
APPS = ("dillo", "cwebp", "vlc")


def _campaigns(cache_dirs, corpus_dirs):
    """Run one campaign per app concurrently; returns each ``--json`` payload."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    processes = {
        app: subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "campaign", "--apps", app,
                "--cache-dir", str(cache_dirs[app]),
                "--corpus-dir", str(corpus_dirs[app]),
                "--json",
            ],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        for app in APPS
    }
    payloads = {}
    try:
        for app, process in processes.items():
            out, _ = process.communicate(timeout=120)
            assert process.returncode == 0, app
            payloads[app] = json.loads(out)
    finally:
        for process in processes.values():
            if process.poll() is None:
                process.kill()
                process.wait()
    return payloads


def _entries(directory):
    return json.loads((directory / "meta.json").read_text())["entries"]


def test_concurrent_campaigns_sharing_stores_lose_no_records(tmp_path):
    shared_cache, shared_corpus = tmp_path / "cache", tmp_path / "corpus"
    shared = _campaigns(
        {app: shared_cache for app in APPS}, {app: shared_corpus for app in APPS}
    )
    reference = _campaigns(
        {app: tmp_path / f"cache-{app}" for app in APPS},
        {app: tmp_path / f"corpus-{app}" for app in APPS},
    )

    for app in APPS:
        assert shared[app]["classifications"] == reference[app]["classifications"]
    # Witness signatures embed the application, so per-app corpora are
    # disjoint: the shared corpus holds every app's distinct witnesses.
    assert _entries(shared_corpus) == sum(
        reference[app]["triage"]["distinct"] for app in APPS
    )
    # The shared cache is the union, strictly bigger than any one app's.
    assert _entries(shared_cache) > max(
        _entries(tmp_path / f"cache-{app}") for app in APPS
    )
