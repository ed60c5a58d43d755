"""fjl: a workbench for fuzzy justification logics.

Parsing and printing for justification-term formulas, exact rational
semantics over fuzzy Fitting models (a Mkrtychev model is the one-world
Fitting model at ``w0``), Hilbert-style proof checking under constant
specifications, constructive internalization, and certified lower/upper
bounds on graded degrees.
"""

from .logics import Base, LogicConfig, Scheme, active_schemes, axiom_instance_of, schemes_by_tag
from .models import (
    FittingModel, crisp_eval, embed_rpl_valuation, eval_formula, eval_many,
    eval_validated, load_model, model_from_dict,
    model_to_dict, save_model, validate_model,
)
from .generate import (
    ModelParams, SearchBudget, find_countermodel, random_model,
)
from .parser import (
    ConstantNotAllowedError, ConstantRangeError, LexicalError, ParseError,
    formula_reader, parse_formula, parse_term,
)
from .proofs import (
    Ax, ConstantSpecification, Derivation, DerivationBuilder, FiniteCS, Gian,
    Hyp, Ian, MP, Step, TotalCS, check_cs, check_derivation, format_derivation,
    parse_cs, parse_derivation,
)
from .lifting import (
    DegreeInterval, degree_interval, lift, provability_degree_lb,
    truth_degree_ub,
)
from .suites import SUITES, SuiteReport, run_suite
from .syntax import (
    App, Const, Formula, Implies, Justified, Prop, StrongConj, Sum, Term,
    TruthConst, Var, expand_sugar, print_formula, print_term,
)
from .tnorms import TNormKind, check_adjunction, residuum_apply, tnorm_apply

__version__ = "0.1.0"
