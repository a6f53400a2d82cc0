"""Numerical laboratory for stochastic recursive optimal control.

Simulates controlled forward-backward stochastic systems, solves the
generalized value PDE by a monotone finite-difference scheme, integrates
the adjoint process triple, and verifies the first-order jet inclusions
between the value function and the adjoint ratio along optimal paths.

The package re-exports nothing; import its submodules:

  problem   the problem data model: coefficient DSL, config parser,
            builtin problems, the HJB control grid
  forward   time grid, Brownian increments, Euler simulation (PathBatch)
  backward  least-squares Monte Carlo backward solver and cost report
  adjoint   the adjoint triple (p, q, k) and the maximum-condition check
  hjb       monotone finite-difference HJB solver, CFL rule, value grid
  jets      super- and sub-jet estimates and the p q^-1 connection check
  oracles   closed-form reference values of the builtin example31
  cli       the `fbsdelab` command line: run, table
"""

__version__ = "0.1.0"
