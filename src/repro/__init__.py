"""DIODE reproduction: targeted integer overflow discovery.

This package reproduces the system described in *Targeted Automatic Integer
Overflow Discovery Using Goal-Directed Conditional Branch Enforcement*
(ASPLOS 2015): the DIODE engine (:mod:`repro.core`), the substrates it runs
on — a bitvector SMT solver (:mod:`repro.smt`), a core imperative language
and its concrete/concolic/taint interpreters (:mod:`repro.lang`,
:mod:`repro.exec`), an input-format library (:mod:`repro.formats`) — and
models of the paper's five benchmark applications (:mod:`repro.apps`).
Discovered overflows flow through the witness-triage subsystem
(:mod:`repro.triage`): deduplication by canonical signature, input
minimization, a persistent cross-run corpus, and regression replay.

Quickstart::

    from repro.apps import get_application
    from repro.core import Diode

    application = get_application("dillo")
    result = Diode().analyze(application)
    for site_result in result.site_results:
        print(site_result.site.name, site_result.classification.value)
"""

#: Single source of truth for the package version: the CLI's ``--version``,
#: the campaign's ``--json`` output and the trace-dir meta all read it from
#: here.
__version__ = "1.7.0"

from repro.core.engine import Diode, DiodeConfig
from repro.apps.registry import all_applications, application_names, get_application

__all__ = [
    "Diode",
    "DiodeConfig",
    "all_applications",
    "application_names",
    "get_application",
    "__version__",
]
