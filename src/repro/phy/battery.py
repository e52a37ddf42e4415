"""Battery model with rate-dependent capacity (Peukert effect).

Battery lifetime is the paper's headline motivation, and PAMAS-style MAC
policies (§1) key their sleep decisions off battery level, so the model
exposes a state-of-charge that depletes faster under high drain.

The model is deliberately simple and well-documented rather than
electrochemically exact: nominal energy capacity in joules, an optional
Peukert exponent making high-current draw disproportionately costly, and
a cutoff below which the battery reports empty.
"""

from __future__ import annotations


class Battery:
    """An energy reservoir with optional rate-dependent inefficiency.

    Parameters
    ----------
    capacity_j:
        Nominal capacity in joules at the rated (1x) drain power.
    rated_power_w:
        The drain power at which the nominal capacity is achieved.
        Only used when ``peukert_exponent > 1``.
    peukert_exponent:
        ``1.0`` gives an ideal linear battery.  Values above 1 make drain
        at powers above ``rated_power_w`` cost extra:
        ``effective_drain = power * (power / rated_power_w)^(k - 1)``.
    cutoff_fraction:
        State of charge below which :attr:`is_empty` becomes true
        (models the usable-voltage cutoff of real cells).
    """

    def __init__(
        self,
        capacity_j: float,
        rated_power_w: float = 1.0,
        peukert_exponent: float = 1.0,
        cutoff_fraction: float = 0.0,
    ) -> None:
        if capacity_j <= 0:
            raise ValueError("capacity must be positive")
        if rated_power_w <= 0:
            raise ValueError("rated power must be positive")
        if peukert_exponent < 1.0:
            raise ValueError("Peukert exponent must be >= 1")
        if not 0.0 <= cutoff_fraction < 1.0:
            raise ValueError("cutoff fraction must be in [0, 1)")
        self.capacity_j = float(capacity_j)
        self.rated_power_w = float(rated_power_w)
        self.peukert_exponent = float(peukert_exponent)
        self.cutoff_fraction = float(cutoff_fraction)
        self._remaining_j = float(capacity_j)

    @classmethod
    def from_mah(
        cls, capacity_mah: float, voltage_v: float, **kwargs: float
    ) -> "Battery":
        """Build from the usual datasheet rating (mAh at a pack voltage)."""
        if capacity_mah <= 0 or voltage_v <= 0:
            raise ValueError("capacity and voltage must be positive")
        return cls(capacity_j=capacity_mah * 3.6 * voltage_v, **kwargs)

    # -- state -----------------------------------------------------------

    @property
    def remaining_j(self) -> float:
        """Remaining usable energy in joules."""
        return self._remaining_j

    @property
    def state_of_charge(self) -> float:
        """Remaining fraction of nominal capacity, in [0, 1]."""
        return self._remaining_j / self.capacity_j

    @property
    def is_empty(self) -> bool:
        """True once the state of charge falls to the cutoff."""
        return self.state_of_charge <= self.cutoff_fraction

    # -- dynamics -----------------------------------------------------------

    def effective_power_w(self, power_w: float) -> float:
        """Drain rate seen by the cell when the load draws ``power_w``."""
        if power_w < 0:
            raise ValueError("power must be >= 0")
        if power_w == 0.0 or self.peukert_exponent == 1.0:
            return power_w
        ratio = power_w / self.rated_power_w
        return power_w * ratio ** (self.peukert_exponent - 1.0)

    def draw(self, power_w: float, duration_s: float) -> float:
        """Drain the battery at ``power_w`` for ``duration_s``.

        Returns the effective energy removed.  Draining an empty battery
        is allowed (removes nothing) so callers can poll :attr:`is_empty`
        after the fact.
        """
        if duration_s < 0:
            raise ValueError("duration must be >= 0")
        energy = self.effective_power_w(power_w) * duration_s
        taken = min(energy, self._remaining_j)
        self._remaining_j -= taken
        return taken

    def lifetime_at_power_s(self, power_w: float) -> float:
        """Time to cutoff if drained at a constant ``power_w`` from now."""
        effective = self.effective_power_w(power_w)
        usable = self._remaining_j - self.cutoff_fraction * self.capacity_j
        if usable <= 0:
            return 0.0
        if effective == 0.0:
            return float("inf")
        return usable / effective

    def __repr__(self) -> str:
        return (
            f"<Battery {self.state_of_charge * 100:.1f}% of "
            f"{self.capacity_j:.0f} J>"
        )
