"""intenlog: an intensional logic engine with autoepistemic deduction.

Meaning is assigned in two steps: formulas are interpreted as interned
concepts, and time-indexed worlds extensionalize concepts to finite
relations.  On top sits a reified Know predicate with reflexivity,
positive-introspection and distribution rules, temporary and permanent
memory, and a mock-grounded natural-language interface.
"""

from .syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    EngineError,
    Exists,
    Formula,
    FormulaError,
    Identity,
    Neg,
    Predicate,
    TimeValue,
    Top,
    Variable,
    Vocabulary,
    free_var_tuple,
    serialize,
    serialize_term,
    substitute,
)
from .parser import ParseError, parse_formula, parse_term
from .prp import Concept, ConceptError, ConceptTable, Particular
from .relalg import (
    RelAlgError,
    Relation,
    complement,
    natural_join,
    project_out,
)
from .worlds import (
    MissingExtensionError,
    World,
    WorldError,
    eval_sentence,
    extension,
    satisfying_assignments,
)
from .epistemic import (
    EpistemicError,
    KnowAtom,
    Memory,
    TraceStep,
    answer,
    apply_4,
    apply_K,
    apply_T_open,
    assert_experience,
    consolidate,
    forward_chain,
)
from .grounding import (
    GroundingError,
    GroundingProcess,
    GroundingRegistry,
    NotParseable,
    SDC,
    load_corpus,
    load_templates,
    pars,
    render_nl,
)
from .kb import KBError, Session, dump_kb, load_kb

__version__ = "0.1.0"
