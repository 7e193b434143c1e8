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


# The domain of the linearized model (Vitali et al., PRL 98, 030405 (2007)):
# each checked input by name, and the comparison and bound its values satisfy.
_RANGES = {
    **dict.fromkeys(
        ("omega_m", "gamma_m", "kappa", "laser_wavelength", "omega_laser", "n_hi"),
        (operator.gt, 0),
    ),
    **dict.fromkeys(("g_m", "power", "temperature", "n_th"), (operator.ge, 0)),
    "beta": (operator.lt, 1),  # the restoring force omega_m*(beta - 1) keeps its sign
}
_SYMBOLS = {operator.gt: ">", operator.ge: ">=", operator.lt: "<"}


def check_range(**values) -> None:
    """Raise :class:`ConfigError` naming the first value outside the range of
    its name, ``"<name> must be <rule>, got <value>"``.

    Each value is a scalar or an array-like, checked elementwise; NaN is
    outside every range.  A name without a range raises ``KeyError``.
    """
    for name, value in values.items():
        within, bound = _RANGES[name]
        if isinstance(value, float) and within(value, bound):
            continue  # a float in range, without numpy's per-call cost
        value = np.asarray(value)
        mask = within(value, bound)
        if np.count_nonzero(mask) == mask.size:
            continue
        first = value[~mask][0].item()
        raise ConfigError(f"{name} must be {_SYMBOLS[within]} {bound!r}, got {first!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Operating parameters of the driven optomechanical cavity.

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
    exp(hbar*omega_m/(k_B*T)) to be a float.  Raises :class:`ConfigError`
    where n_th is too large for one (a tiny `omega_m` or a huge `temperature`).
    """
    require_finite(temperature=temperature, omega_m=omega_m)
    check_range(temperature=temperature, omega_m=omega_m)
    if temperature == 0.0:
        return 0.0
    try:
        ratio = HBAR * omega_m / (K_B * temperature)
    except ZeroDivisionError:  # k_B*T underflows to 0: divide in another order
        ratio = HBAR / K_B * (omega_m / temperature)
    try:
        occupation = 1.0 / math.expm1(ratio)
    except OverflowError:
        return 0.0
    except ZeroDivisionError:  # the ratio underflows to 0
        occupation = math.inf
    if occupation == math.inf:  # or the reciprocal of a subnormal ratio overflows
        raise ConfigError(
            f"thermal occupation overflows at temperature={temperature!r}, omega_m={omega_m!r}"
        )
    return occupation


@np.errstate(all="ignore")
def drive_amplitude(power, kappa: float, omega_laser: float):
    """Drive amplitude |E0| = sqrt(P0 * kappa / (2 * hbar * omega_laser)) (1/s).

    Scales as sqrt(P0); zero for an undriven cavity.  Elementwise over an
    array of powers.  A power too large for the product gives an infinite
    amplitude without a warning: the grid point then reads status ``error``.
    Raises :class:`ConfigError` for a negative power or a kappa or
    omega_laser that is not positive.
    """
    check_range(power=power, kappa=kappa, omega_laser=omega_laser)
    denominator = 2.0 * HBAR * omega_laser
    if denominator == 0.0:  # the product underflows to 0: divide in another order
        return np.sqrt(power * kappa / (2.0 * HBAR) / omega_laser)
    return np.sqrt(power * kappa / denominator)


# The undecorated body, which the pipeline runs under its entry point's errstate.
_drive_amplitude = drive_amplitude.__wrapped__


# Config file schema: "key = value" lines, '#' comments.  Frequencies in Hz.
# Each numeric key: the field it sets and the factor from its unit to the field's.
_TWO_PI = 2.0 * math.pi
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
    or a value that is not finite, outside its field's range or finite only
    before that conversion (``kappa_hz = 1e308``), is an error that names the
    file, line and key.
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
            within, bound = _RANGES[field]  # the factor is positive, so the rule holds unscaled
            if not (within(number, bound) and math.isfinite(number)):
                rule = "finite" if within(number, bound) else f"{_SYMBOLS[within]} {bound!r}"
                raise ConfigError(f"{path}:{lineno}: {key} must be {rule}, got {number!r}")
            updates[field] = factor * number
            if not math.isfinite(updates[field]):
                raise ConfigError(
                    f"{path}:{lineno}: {key} = {value} overflows {field} = {factor!r} * {key}"
                )
    return replace(default_params(), **updates)
