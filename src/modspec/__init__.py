"""Exact prime spectra, localizations and structure sheaves of finitely
generated modules over Z and Z/n.

The public names below load lazily (PEP 562): ``import modspec`` loads no
submodule, and ``modspec.<name>`` imports the name's home module on first
use, as ``modspec.<submodule>`` imports that submodule.  So a CLI process
loads only the modules its command runs.
"""

import importlib

_EXPORTS = {
    "arith": (
        "BezoutDecomposition",
        "FactorBoundExceeded",
        "Ideal",
        "NotInRadicalError",
        "Ring",
        "RingMismatchError",
        "ZZ",
        "Zmod",
        "bezout_decompose",
        "ideal",
        "ideal_combine",
        "ideal_radical",
        "is_prime_ideal",
        "radical_membership_witness",
    ),
    "corpus": ("finite_corpus", "full_corpus", "prufer_corpus"),
    "fgmodules": (
        "CapExceededError",
        "FgModule",
        "LinearMap",
        "ModElement",
        "Submodule",
        "UnsupportedModuleError",
        "all_submodules",
        "colon",
        "direct_sum",
        "direct_sum_with_embeddings",
        "from_cyclic_orders",
        "iso_class_equal",
        "normalize",
        "prufer_module",
        "scalar_colon",
        "scalar_multiple_submodule",
        "submodule_from_generators",
        "zero_module",
    ),
    "localization": (
        "CorrespondenceError",
        "LocalizedModule",
        "MultSet",
        "PrimeCorrespondence",
        "TransferReport",
        "localize",
        "localize_bruteforce",
        "prime_correspondence",
        "relocalize",
        "verify_localization_transfer",
    ),
    "sheaf": (
        "CoverDecomposition",
        "CoverError",
        "Germ",
        "IsoCriterionResult",
        "PsiMapResult",
        "Section",
        "SectionSpace",
        "SheafAxiomsReport",
        "StalkResult",
        "cover_decompose",
        "iso_criterion",
        "psi_map",
        "restrict",
        "sections",
        "sheaf_axioms_check",
        "stalk",
    ),
    "spectrum": (
        "ClosedSet",
        "NaturalMapResult",
        "OpenSet",
        "PradicalResult",
        "PrimeSubmodule",
        "PropertyViolation",
        "Spectrum",
        "StrategyMismatchError",
        "basic_open",
        "is_pradical",
        "is_prime_submodule",
        "natural_map",
        "prime_radical",
        "spec_enumerate",
        "variety",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "lattices", "verify"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
