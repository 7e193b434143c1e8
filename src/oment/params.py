"""Physical parameters, unit conventions and derived drive/bath quantities.

All frequencies are stored as angular frequencies (rad/s).  Config files and
the CLI take ordinary frequencies in Hz and convert on ingestion.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .constants import C_LIGHT, HBAR, K_B

__all__ = [
    "ConfigError",
    "PhysicalParams",
    "default_params",
    "thermal_occupation",
    "drive_amplitude",
    "load_config",
    "require_finite",
    "check_range",
    "CONFIG_KEYS",
]


class ConfigError(ValueError):
    """Raised for malformed or out-of-range configuration input."""


def require_finite(**values: float) -> None:
    """Raise :class:`ConfigError` naming the first value that is not a real
    number, or is NaN or infinite."""
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except TypeError:
            raise ConfigError(f"{name} must be a real number, got {value!r}") from None
        except OverflowError:  # an int beyond the float range
            raise ConfigError(f"{name} must be finite, got an int too large for a float") from None
        if not finite:
            raise ConfigError(f"{name} must be finite, got {value!r}")


_TWO_PI = 2.0 * math.pi


def _between(low: float, high: float) -> tuple:
    return operator.ge, low, operator.le, high


# The domain of the linearized model (Vitali et al., PRL 98, 030405 (2007)):
# each checked input by name, and the comparisons its values pass against a
# lower and an upper bound.  The rates, power, wavelength and temperature lie
# in a box many decades around published optomechanical systems (suspended
# mirrors near 1 Hz to GHz photonic crystals), inside which no stage leaves
# the float range.  The detuning is any finite number and has no rule.
_RANGES = {
    "omega_m": _between(_TWO_PI * 0.1, _TWO_PI * 1e12),
    "gamma_m": _between(_TWO_PI * 1e-9, _TWO_PI * 1e12),
    "g_m": _between(0.0, _TWO_PI * 1e12),
    "kappa": _between(_TWO_PI * 0.1, _TWO_PI * 1e15),
    "power": _between(0.0, 1e3),
    "laser_wavelength": _between(1e-9, 10.0),
    # PhysicalParams.omega_laser, 2*pi*c/lambda, at the wavelength's bounds
    "omega_laser": _between(_TWO_PI * C_LIGHT / 10.0, _TWO_PI * C_LIGHT / 1e-9),
    "temperature": _between(0.0, 1e4),
    "n_th": (operator.ge, 0, operator.le, math.inf),
    "n_hi": (operator.gt, 0, operator.le, math.inf),
    # the restoring force omega_m*(beta - 1) keeps its sign
    "beta": (operator.ge, -math.inf, operator.lt, 1),
}
_SYMBOLS = {operator.gt: ">", operator.ge: ">=", operator.lt: "<"}


def _rule(name: str, per: float = 1.0) -> str:
    """The range of `name` as text, its bounds divided by `per` (the factor
    from a config key's unit to the field's)."""
    above, low, below, high = _RANGES[name]
    if per != 1.0:
        low, high = low / per, high / per
    if high == math.inf:
        return f"{_SYMBOLS[above]} {low!r}"
    if low == -math.inf:
        return f"{_SYMBOLS[below]} {high!r}"
    return f"in [{low!r}, {high!r}]"  # every two-sided range is closed


def check_range(**values) -> None:
    """Raise :class:`ConfigError` naming the first value outside the range of
    its name, ``"<name> must be <rule>, got <value>"``.

    Each value is a scalar or an array-like, checked elementwise against both
    bounds of its range; NaN is outside every range.  A name without a range
    raises ``KeyError``.
    """
    for name, value in values.items():
        above, low, below, high = _RANGES[name]
        if isinstance(value, float) and above(value, low) and below(value, high):
            continue  # a float in range, without numpy's per-call cost
        value = np.asarray(value)
        mask = above(value, low) & below(value, high)
        if np.count_nonzero(mask) == mask.size:
            continue
        first = value[~mask][0].item()
        raise ConfigError(f"{name} must be {_rule(name)}, got {first!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Operating parameters of the driven optomechanical cavity.

    Every field is checked as given and then stored as a Python float.

    Attributes
    ----------
    omega_m : float
        Mechanical angular frequency (rad/s).
    gamma_m : float
        Mechanical damping rate (rad/s).
    g_m : float
        Single-photon optomechanical coupling (rad/s).
    kappa : float
        Total cavity decay rate (rad/s).
    power : float
        Input laser power (W).
    laser_wavelength : float
        Drive wavelength (m); sets the laser angular frequency 2*pi*c/lambda.
    temperature : float
        Mechanical bath temperature (K).
    beta : float
        Dimensionless geometrical (softening) nonlinearity.  Must stay below 1
        so the mechanical restoring force omega_m*(beta - 1) keeps its sign.
    """

    omega_m: float
    gamma_m: float
    g_m: float
    kappa: float
    power: float
    laser_wavelength: float
    temperature: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        require_finite(**values)
        check_range(**values)
        for name, value in values.items():
            if type(value) is not float:  # a numpy scalar or an int: every stage gets floats
                object.__setattr__(self, name, float(value))

    @property
    def omega_laser(self) -> float:
        """Laser angular frequency 2*pi*c/lambda (rad/s)."""
        return 2.0 * math.pi * C_LIGHT / self.laser_wavelength


def default_params() -> PhysicalParams:
    """Default parameter set of the reference photonic-crystal experiment.

    Omega_m/2pi = 3.6 GHz, Gamma_m/2pi = 35 kHz, g_m/2pi = 910 kHz,
    kappa = 2*pi*529 MHz, P0 = 0.7 mW, T = 270 mK, beta = 0,
    lambda = 1550 nm.
    """
    two_pi = 2.0 * math.pi
    return PhysicalParams(
        omega_m=two_pi * 3.6e9,
        gamma_m=two_pi * 35e3,
        g_m=two_pi * 910e3,
        kappa=two_pi * 529e6,
        power=0.7e-3,
        laser_wavelength=1.55e-6,
        temperature=0.270,
        beta=0.0,
    )


def thermal_occupation(temperature: float, omega_m: float) -> float:
    """Mean thermal phonon number n_th = 1/(exp(hbar*omega_m/(k_B*T)) - 1).

    The T = 0 limit returns exactly 0, and so does a bath too cold for
    exp(hbar*omega_m/(k_B*T)) to be a float.  Over the range of both inputs
    the exponent is at least about 5e-16, so n_th is a float.
    """
    require_finite(temperature=temperature, omega_m=omega_m)
    check_range(temperature=temperature, omega_m=omega_m)
    if temperature == 0.0:
        return 0.0
    try:
        ratio = HBAR * omega_m / (K_B * temperature)
    except ZeroDivisionError:  # k_B*T underflows to 0 below about 3.6e-301 K
        ratio = HBAR / K_B * (omega_m / temperature)
    try:
        return 1.0 / math.expm1(ratio)
    except OverflowError:
        return 0.0


@np.errstate(all="ignore")
def drive_amplitude(power, kappa: float, omega_laser: float):
    """Drive amplitude |E0| = sqrt(P0 * kappa / (2 * hbar * omega_laser)) (1/s).

    Scales as sqrt(P0); zero for an undriven cavity.  Elementwise over an
    array of powers.  Raises :class:`ConfigError` for a power, kappa or
    omega_laser outside its range.
    """
    check_range(power=power, kappa=kappa, omega_laser=omega_laser)
    e0_sq = power * kappa / (2.0 * HBAR * omega_laser)
    # math.sqrt is correctly rounded, as np.sqrt is: a float power gives a
    # Python float, with the bits of its row in an array of powers
    return math.sqrt(e0_sq) if isinstance(e0_sq, float) else np.sqrt(e0_sq)


# The undecorated body, which the pipeline runs under its entry point's errstate.
_drive_amplitude = drive_amplitude.__wrapped__


# Config file schema: "key = value" lines, '#' comments.  Frequencies in Hz.
# Each numeric key: the field it sets and the factor from its unit to the field's.
_CONFIG_FIELDS = {
    "omega_m_hz": ("omega_m", _TWO_PI),
    "gamma_m_hz": ("gamma_m", _TWO_PI),
    "g0_hz": ("g_m", _TWO_PI),
    "kappa_hz": ("kappa", _TWO_PI),
    "power_w": ("power", 1.0),
    "wavelength_m": ("laser_wavelength", 1.0),
    "temperature_k": ("temperature", 1.0),
    "beta": ("beta", 1.0),
}
CONFIG_KEYS = tuple(_CONFIG_FIELDS)


def load_config(path: str | Path) -> PhysicalParams:
    """Load parameters from a plain-text ``key = value`` file.

    Unspecified keys keep their default values.  Frequencies are plain Hz
    values multiplied by 2*pi, so kappa = 2*pi*kappa_hz.  A key given twice,
    or a value that is not finite or whose field is outside its range, is an
    error that names the file, line and key, with the range in the key's unit
    and the value as written.
    """
    raw: dict[str, tuple[int, str]] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = lineno, value
    updates = {}
    for key, (field, factor) in _CONFIG_FIELDS.items():
        if key in raw:
            lineno, value = raw[key]
            try:
                number = float(value)
            except ValueError as exc:
                message = f"{path}:{lineno}: invalid number for {key!r}: {value!r}"
                raise ConfigError(message) from exc
            converted = factor * number
            above, low, below, high = _RANGES[field]
            if not (above(converted, low) and below(converted, high)):
                rule = _rule(field, factor) if math.isfinite(number) else "finite"
                raise ConfigError(f"{path}:{lineno}: {key} must be {rule}, got {value}")
            updates[field] = converted
    return replace(default_params(), **updates)
