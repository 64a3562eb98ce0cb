"""Code-version attribution for persisted observability artifacts.

Trace directories outlive the run that wrote them; without a
code-version stamp a trace cannot say *which* code produced it.  This module resolves the two attribution
fields every such artifact carries:

* ``repro_version`` — :data:`repro.__version__`;
* ``git`` — ``git describe --always --dirty --tags`` when the working
  tree is a git checkout with git available, else ``None``.

Attribution is best-effort and passive: a missing git binary, a
non-checkout working tree, or a partially initialized ``repro`` package
degrades to ``None`` fields, never an exception.
"""

from __future__ import annotations

import os
import subprocess
from typing import Optional

__all__ = ["attribution", "git_describe", "repro_version"]


def repro_version() -> Optional[str]:
    """The installed :data:`repro.__version__`, or ``None`` mid-init."""
    try:
        # Lazy import: obs modules must not import repro at module load
        # (layering — obs imports nothing from the rest of the package),
        # and this also tolerates being called during partial init.
        import repro

        return getattr(repro, "__version__", None)
    except Exception:
        return None


def git_describe(cwd: Optional[str] = None) -> Optional[str]:
    """``git describe --always --dirty --tags`` for ``cwd``, else ``None``."""
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except Exception:
        return None
    if result.returncode != 0:
        return None
    described = result.stdout.strip()
    return described or None


def attribution() -> dict:
    """Both attribution fields as a dict ready to merge into a record."""
    return {"repro_version": repro_version(), "git": git_describe()}
