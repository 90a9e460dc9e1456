"""Fibre propagation model.

Only one physical effect of the fibre matters to the MAC protocol: the
propagation delay of light along it.  Equation (1) of the paper,

    t_handover = P * L * D,

is the delay for the clock break to travel ``D`` segments of average length
``L`` at ``P`` seconds per metre.  This module provides that primitive plus
a small value object describing one ring segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.phy.constants import FIBRE_PROPAGATION_DELAY_S_PER_M


def propagation_delay(
    length_m: float,
    delay_s_per_m: float = FIBRE_PROPAGATION_DELAY_S_PER_M,
) -> float:
    """Propagation delay [s] of light over ``length_m`` metres of fibre.

    Parameters
    ----------
    length_m:
        Fibre length in metres.  Must be non-negative.
    delay_s_per_m:
        Per-metre delay; defaults to ~5 ns/m (group index 1.5).

    Raises
    ------
    ValueError
        If ``length_m`` or ``delay_s_per_m`` is negative.
    """
    if length_m < 0:
        raise ValueError(f"fibre length must be non-negative, got {length_m}")
    if delay_s_per_m < 0:
        raise ValueError(f"per-metre delay must be non-negative, got {delay_s_per_m}")
    return length_m * delay_s_per_m


@dataclass(frozen=True, slots=True)
class FibreSegment:
    """One fibre-ribbon segment between two neighbouring ring nodes.

    The paper assumes "all links ... of the same length", but the model
    allows heterogeneous lengths; analyses that assume the average length
    ``L`` (Equation 1) use :attr:`length_m` per segment and sum exactly.
    """

    #: Length of the segment in metres.
    length_m: float
    #: Per-metre propagation delay in seconds.
    delay_s_per_m: float = FIBRE_PROPAGATION_DELAY_S_PER_M

    def __post_init__(self) -> None:
        if not 0 <= self.length_m < math.inf:
            raise ValueError(
                f"segment length must be finite and non-negative, got {self.length_m}"
            )
        if self.delay_s_per_m < 0:
            raise ValueError(
                f"per-metre delay must be non-negative, got {self.delay_s_per_m}"
            )

    @property
    def propagation_delay_s(self) -> float:
        """One-way propagation delay across this segment [s]."""
        return propagation_delay(self.length_m, self.delay_s_per_m)
