"""Spec definitions, one module per experiment family, each claim beside
the metrics it reads.  Importing this package registers every spec with
:mod:`repro.bench.spec`."""

from . import (ablations, hostperf, paper, scaling,  # noqa: F401
               synthetic, trace, tune)
