"""Thermal Casimir pressure models and the metrology built on top of them.

The package is organised bottom-up:

``constants``
    Shared SI constants and the version tag stamped into output files.
``io``
    The one CSV format of every table written or read, and the one
    reader of the whitespace input tables.
``optics``
    Tabulated optical data, Kramers-Kronig transform to the imaginary
    frequency axis, Drude/plasma permittivities.
``lifshitz``
    Matsubara-sum pressure and free energy between parallel plates for
    six reflection models, plus an entropy probe.
``corrections``
    Sphere-plate proximity conversion and roughness averaging.
``metrology``
    Ensemble binning, error budgets, confidence bands, exclusion tests
    and a synthetic-data generator.
``hypforce``
    Yukawa-type forces between layered bodies and constraint curves.
``cli``
    Command-line entry points (``kk``, ``pressure``, ``exclusion``,
    ``constraints``).
"""

from casimetry.constants import CONSTANTS_VERSION

__all__ = ["CONSTANTS_VERSION"]
__version__ = "0.1.0"
