"""Semiclassical Gaussian and superposition dynamics for open quantum systems.

Subpackages:

* ``ode``           the one adaptive ODE solver, DOP853 with dense output
* ``symbols``       exact polynomial calculus for phase-space symbols
* ``gaussian``      Gaussian and complex-Gaussian Wigner states, grids
* ``semiclassical`` centre/width equations of motion and the flow classifier
* ``doubled``       double-phase-space propagation of Gaussian superpositions
* ``quantum``       truncated Fock-basis reference solvers (master equation,
                    quantum-jump Monte Carlo, Wigner transforms)
* ``harness``       experiment registry, comparison reports, CLI
"""

__version__ = "0.1.0"
