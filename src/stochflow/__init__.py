"""stochflow: cross-verification of the diffusion / Burgers / wave-equation correspondence.

The package connects three descriptions of the same dynamics and checks
them against each other numerically:

* forward Ito diffusions and their mean forward/backward (current/osmotic)
  velocities, sampled by Monte Carlo;
* the nonlinear velocity equations (viscous, antidiffusive, and complex
  Burgers variants) those velocities satisfy, solved directly;
* the linear heat / Schrodinger-type equations obtained from them by the
  Cole-Hopf substitution ``a = lam (grad F)/F``, with the quadratic
  density ``F F*`` recovered from pure continuity transport.

The modules are the API: import from them (``stochflow.fields``,
``stochflow.born``, ...), each of which lists its public names in its own
``__all__``.  See their docstrings for the individual pieces and the
``stochflow`` CLI for the packaged verification experiments.
"""

__version__ = "0.1.0"
