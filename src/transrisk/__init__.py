"""Transfer risk, regret, and transfer-learning solvers for Gaussian and
linear task pairs, verified against independent sampling and cubature oracles.

The package root exports only ``__version__``, so importing it, or the
command line, loads no module a command does not run.  Import each name
from the module that defines it: ``transrisk.gaussian``,
``transrisk.gauss_transfer``, ``transrisk.portfolio`` and so on."""

__version__ = "0.1.0"
