"""Finite-quotient Cayley/Schreier graph laboratory for monodromy-style
group data: congruence quotients, braid transvection images, product
replacement graphs, square-tiled surface censuses, and their spectra."""

__version__ = "0.1.0"

from .elements import (
    GroupElement,
    SymplecticForm,
    act_on_vectors,
    identity_like,
    identity_matrix,
    identity_permutation,
    inverse,
    is_symplectic,
    multiply,
    reduce_mod,
)
from .groups import (
    BudgetExceeded,
    FiniteGroup,
    GeneratorSet,
    bfs_closure,
    cyclic_generators,
    direct_product_of_cyclic,
    matrix_group_order,
    sl2_generators,
    sp_order,
    symmetric_generators,
)
from .monodromy import (
    BraidWord,
    ChainConfiguration,
    CongruenceLevelReport,
    braid_to_matrix,
    build_chain,
    congruence_report,
    point_pushing_generators,
    pure_braid_generators,
    standard_symplectic_generators,
    transvection,
)
from .graphs import (
    MultiGraph,
    cayley_graph,
    components,
    from_edges,
    load_graph,
    quotient_check,
    save_graph,
    schreier_graph,
    to_dot,
    torsion_action,
    torsion_projection,
)
from .spectra import (
    ConvergenceError,
    EsperantistFit,
    SpectralReport,
    SweepResult,
    esperantist_fit,
    family_sweep,
    lambda1,
    write_reports_csv,
)
from .pra import (
    EpiTuple,
    PraMove,
    WalkStats,
    all_moves,
    apply_move,
    enumerate_epi,
    pra_graph,
    pra_walk,
    transitivity_report,
)
from .origami import (
    CensusClass,
    OrigamiPair,
    census,
    cycle_type,
    encode_pair,
    genus,
    nielsen_moves,
    origami_graph,
    parse_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]
