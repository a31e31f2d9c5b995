"""Exact word synthesis and Cayley-diameter experiments over SL_n(F_p)."""

from .bruhat import BruhatTriple, bruhat_decompose, is_lower_triangular, is_monomial
from .errors import (
    FieldMismatchError,
    InvariantError,
    NotGeneratingError,
    ParameterError,
    SearchExhaustedError,
    ShapeError,
    SingularMatrixError,
)
from .ff_linalg import (
    GFMatrix,
    PrimeField,
    Subspace,
    complete_to_basis,
    sl_map_frame,
    unit_vector,
    vec,
)
from .group_model import (
    BlockStep,
    DensityBound,
    GenStep,
    Generator,
    GeneratorSet,
    Groumvirate,
    Word,
    density_threshold,
    evaluate_word,
    generator_set_from_text,
    generator_set_to_text,
    groumvirate_step,
    pi2_retarget,
    random_sl,
    random_word,
    signed_block_swap,
    swap_target,
    unsigned_block_swap,
    word_cost,
    word_from_text,
    word_to_text,
)
from .lower_bound import (
    BfsResult,
    Certificate,
    LowerBoundSet,
    PotentialTrace,
    bfs_covering,
    bfs_shortest_word,
    block_generators,
    enumerate_sl,
    lb_generating_set,
    lb_generating_set_explicit,
    lower_bound_certificate,
    potential_trace,
    signed_swap_matrix,
    sl_order,
    verify_descent,
)
from .word_builder import BuildReport, FramePair, WordBuilder

__version__ = "0.1.0"
