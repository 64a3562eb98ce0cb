"""Setuptools metadata for the ``repro`` package.

All project metadata lives here: the package name, the version (read from
``__version__`` in ``src/repro/__init__.py``, its single source) and the
``src/`` layout.  The execution environment has no ``wheel`` package, so
PEP 517 editable installs (``pip install -e .``) cannot build a wheel;
the legacy editable path (``pip install -e . --no-use-pep517`` or
``python setup.py develop``) works offline.  ``python setup.py --name
--version`` prints the metadata without importing the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def package_version() -> str:
    """``repro.__version__``, read from source so setup imports nothing."""
    source = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(
        encoding="utf-8"
    )
    match = re.search(r'^__version__ = "([^"]+)"', source, re.MULTILINE)
    if match is None:
        raise RuntimeError("no __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro",
    version=package_version(),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
