"""Parameter-grid expansion.

A grid is ``{param: [values...]}``; expansion is the cartesian product
in *declaration order* — first key outermost, values in listed order —
so the same grid always expands to the same sequence of points.  That
stable order is what lets a resumed campaign line its cached runs back
up with fresh ones.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Dict, List, Mapping, Sequence


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Expand ``{k: [v...]}`` into the ordered list of combinations.

    An empty grid expands to one empty point (a campaign with no swept
    axes still runs its base configuration once per seed).
    """
    for key, values in grid.items():
        if not values:
            raise ValueError(f"grid axis {key!r} has no values")
    axes = [[(key, value) for value in values] for key, values in grid.items()]
    return [dict(combo) for combo in product(*axes)]
