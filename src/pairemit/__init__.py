"""Coincidence statistics, entanglement content, and Bell thresholds of
electron pairs field-emitted from a superconducting tip.

Importing the package loads none of its modules: import each name from its
module (``from pairemit.correlations import rho2_and_Q``)."""

__version__ = "0.3.5"
