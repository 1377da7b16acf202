"""Executable continuous combinatorics at desk scale: symbolic graph families
on zero-dimensional spaces, their finite level quotients, the odd-closed-walk
criterion for clopen 2-colorability, explicit colorings, subshift languages,
Cantor-Bendixson ranks and finite homomorphism certificates."""

from .words import Alphabet, BiWord, BlockWord, UltWord, parse_bi, parse_ult
from .dynamics import (
    QuadraticReal,
    Radix,
    fibonacci_len,
    fibonacci_word,
    odometer_iter,
    parse_quadratic,
    parse_radix,
    period_spectrum,
    periodic_point_period,
    sturmian_code,
)
from .families import (
    SymbolicGraph,
    edges_at_level,
    gdelta,
    gm,
    go_graph,
    go_plus,
    gp_chain,
    k0_graph,
    ka_graph,
    odd_cycle,
    parse_family,
    rank_subshift,
    restricted_orbit_graph,
    t_graph,
    with_direction,
)
from .quotients import decide_level, odd_closed_walk, quotient, scan
from .colorings import (
    ClopenColoring,
    parity_coloring,
    return_parity_coloring,
    return_time,
    search_coloring,
    three_coloring_beta,
    verify_coloring,
)
from .subshift_lang import (
    ForbiddenSet,
    LimitForest,
    cb_rank,
    complexity,
    expand_fib_forbidden,
    member,
    power_free_check,
    rank_forest,
)
from .homs import cycle_spectrum, hom_exists, quotient_hom_obstruction
