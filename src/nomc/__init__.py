"""Nominal rewriting and narrowing modulo commutativity.

Terms carry binders and suspended permutations; equality is alpha-equivalence
extended with commutativity of designated binary symbols. On top of that the
package provides freshness/equality judgements, rule-based unification and
matching, rewriting with normalisation and coherence probes, and bounded
narrowing with lifting checkers relating the two.
"""

from .alpha import (
    EMPTY_CONTEXT,
    EqualityGoal,
    FreshnessConstraint,
    FreshnessContext,
    FreshnessGoal,
    INCONSISTENT,
    Sentinel,
    check_problem,
    derive_alpha,
    derive_alpha_c,
    derive_freshness,
    format_context,
    freshness_context_nf,
)
from .narrowing import (
    NarrowingNode,
    NarrowingStep,
    NarrowingTree,
    NotFound,
    PRECONDITION_FAIL,
    TruncationRecord,
    lifting_backward_construct,
    lifting_forward_check,
    narrow_search,
    narrowing_to_rewriting,
)
from .parsing import (
    ParseError,
    SystemFile,
    format_system,
    parse_context,
    parse_judgement,
    parse_substitution,
    parse_system,
    parse_term,
)
from .rewriting import (
    CoherenceVerdict,
    NOT_WITNESSED,
    REJECTED,
    RewriteRule,
    RewriteStep,
    RewriteSystem,
    StepLimitExceeded,
    WITNESSED,
    alpha_variants,
    c_class_enumerate,
    coherence_check,
    commutative_variants,
    normal_form_equal_check,
    normalize,
    one_step_rewrites,
    primary_rewrite_steps,
    r_over_e_one_step,
    verify_rewrite_step,
)
from .terms import (
    Abstraction,
    App,
    Atom,
    FrozenInstanceError,
    IDENTITY,
    IDENTITY_SUBST,
    Permutation,
    Position,
    Signature,
    Substitution,
    Suspension,
    Term,
    Var,
    apply_subst,
    difference_set,
    fresh_atom,
    is_ground,
    permute_term,
    replace_at,
    subterm_at,
    term_atoms,
    term_vars,
)
from .unify import (
    CSolution,
    FAIL,
    STUCK,
    SearchSpaceExceeded,
    UNKNOWN,
    UnificationState,
    check_solution,
    enumerate_fixpoint_solutions,
    instance_of,
    match,
    simplify_step,
    solve,
)

__version__ = "0.1.0"
