"""Exact Clifford/Weyl superalgebra arithmetic and twisted-Weyl tooling.

The package is organized around one signature type and five layers:

- ``algebra``: normal-form arithmetic in the superalgebra (SuperElement)
  and the sparse exact-combination core it shares with the base ring
- ``basering``: the degree-zero polynomial ring, its shift automorphisms,
  and the two bridges (iota_embed, project_zero)
- ``datum``: integer-matrix validation and the derived (t, sigma, mu) data
- ``support``: graded-support membership, enumeration, and injectivity
- ``liesuper``: Chevalley presentations checked against operator images

Importing the package loads ``algebra``, ``basering`` and ``datum``.
``support`` and ``liesuper`` load on first use: reading one of their names
here, or the submodule itself, imports the module once and binds its names
into this namespace (PEP 562), so a process that never reaches them never
compiles them.  ``__all__`` and ``from superweyl import ...`` are unaffected.

Everything is pure and immutable; all indices are 0-based in the library
and 1-based in rendered output and the CLI.
"""

from .algebra import (
    Signature,
    SuperElement,
    SuperMonomial,
    degree_of,
    involution,
    mono_mul,
    power_gen,
    word_element,
)
from .basering import (
    BaseRingElement,
    equals,
    iota_embed,
    project_zero,
    tau_apply,
)
from .datum import (
    GammaMatrix,
    GradedElement,
    TgwDatum,
    consistency_check,
    derive_datum,
    derive_mu,
    derive_t,
    eval_word,
    gamma_from_dict,
    gamma_to_dict,
    gradation_pair,
    identity_gamma,
    matrix_consistency,
    phi_generator,
    validate_gamma,
)
from .errors import (
    InhomogeneityError,
    InvalidGammaError,
    NilpotencyError,
    ResourceCapError,
    SignatureMismatchError,
    SuperweylError,
    UndefinedDegreeError,
)

__version__ = "0.1.0"

# The names each lazy module re-exports here, bound on first use.
_LAZY = {
    "liesuper": (
        "Calibration",
        "LiePreset",
        "calibrate",
        "check_relations",
        "check_triangle",
        "load_calibration",
        "preset",
        "super_bracket",
        "zeta_matrix",
    ),
    "support": (
        "enumerate_support",
        "gamma_rank_kernel",
        "injectivity_report",
        "is_in_support",
        "oracle_membership",
        "verify_witness",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = name if name in _LAZY else _LAZY_OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")  # also binds the submodule here
    namespace = globals()
    for attr in _LAZY[module]:
        namespace[attr] = getattr(loaded, attr)
    return namespace[name]


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})


__all__ = [
    "BaseRingElement",
    "Calibration",
    "GammaMatrix",
    "GradedElement",
    "InhomogeneityError",
    "InvalidGammaError",
    "LiePreset",
    "NilpotencyError",
    "ResourceCapError",
    "Signature",
    "SignatureMismatchError",
    "SuperElement",
    "SuperMonomial",
    "SuperweylError",
    "TgwDatum",
    "UndefinedDegreeError",
    "calibrate",
    "check_relations",
    "check_triangle",
    "consistency_check",
    "degree_of",
    "derive_datum",
    "derive_mu",
    "derive_t",
    "enumerate_support",
    "equals",
    "eval_word",
    "gamma_from_dict",
    "gamma_rank_kernel",
    "gamma_to_dict",
    "gradation_pair",
    "identity_gamma",
    "injectivity_report",
    "involution",
    "iota_embed",
    "is_in_support",
    "matrix_consistency",
    "load_calibration",
    "mono_mul",
    "oracle_membership",
    "phi_generator",
    "power_gen",
    "preset",
    "project_zero",
    "super_bracket",
    "tau_apply",
    "validate_gamma",
    "verify_witness",
    "word_element",
    "zeta_matrix",
]
