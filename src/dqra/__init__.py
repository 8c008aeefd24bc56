"""Computing with finite distributive quasi relation algebras.

Validate axioms of table-given algebras, build algebras of upward-closed
relations over partially ordered equivalences, contract algebras at positive
symmetric idempotents, verify and search representations, derive quotient
representations of contractions, and detect obstructions to finite
representability.
"""

from .algebra import (
    FiniteDqRA,
    LawCheck,
    LawViolationError,
    MalformedAlgebraError,
    NotAnElementError,
    ValidationReport,
    check_di,
    check_residuals,
    derived_zero,
    plus,
    residuals,
    validate_dqra,
)
from .contraction import (
    Contraction,
    MembershipVerdict,
    NotPsiError,
    contract,
    is_psi,
    membership_tfae,
    psi_elements,
)
from .isomorphism import (
    algebra_isomorphism,
    algebras_isomorphic,
    structure_isomorphism,
    structures_isomorphic,
)
from .nonfinrep import (
    ContractionScan,
    Obstruction,
    basic_obstruction,
    contraction_obstruction,
    scan_contractions,
)
from .relations import (
    BinRel,
    CapExceededError,
    CarrierMismatchError,
    ClosureResult,
    NotAnUpsetError,
    RelStructure,
    algebra_from_upsets,
    dq_closure,
    enumerate_structures,
    full_dq,
    full_dq_family,
    lneg_minus,
    lneg_tilde,
    neg,
    rel_residuals,
    sample_structures,
    validate_structure,
)
from .representation import (
    Embedding,
    QuotientStructure,
    SearchResult,
    SearchStatus,
    find_embedding,
    induced_embedding,
    quotient_representation,
    verify_embedding,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """The catalogue's names, imported on first use, so that `python -m
    dqra.catalogue` finds that module unimported and runs it once."""
    if name in ("CATALOGUE", "CatalogueEntry", "catalogue_names",
                "load_algebra", "load_representation", "load_structure"):
        from . import catalogue
        return getattr(catalogue, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
