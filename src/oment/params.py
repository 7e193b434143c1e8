"""Physical parameters, unit conventions and derived drive/bath quantities.

All frequencies are stored as angular frequencies (rad/s).  Config files and
the CLI take ordinary frequencies in Hz and convert on ingestion.
"""

from __future__ import annotations

import math
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
        if not finite:
            raise ConfigError(f"{name} must be finite, got {value!r}")


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
    convention_eta_factor : float
        Factor f in E_N = max(0, -ln(f * eta)).
    """

    omega_m: float
    gamma_m: float
    g_m: float
    kappa: float
    power: float
    laser_wavelength: float
    temperature: float
    beta: float = 0.0
    convention_eta_factor: float = 2.0

    def __post_init__(self) -> None:
        require_finite(**{f.name: getattr(self, f.name) for f in fields(self)})
        positive = {
            "omega_m": self.omega_m,
            "gamma_m": self.gamma_m,
            "kappa": self.kappa,
            "laser_wavelength": self.laser_wavelength,
            "convention_eta_factor": self.convention_eta_factor,
        }
        for name, value in positive.items():
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
        if self.g_m < 0:
            raise ValueError(f"g_m must be >= 0, got {self.g_m!r}")
        if self.power < 0:
            raise ValueError(f"power must be >= 0, got {self.power!r}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature!r}")
        if not self.beta < 1.0:
            raise ValueError(f"beta must be < 1, got {self.beta!r}")

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
        convention_eta_factor=2.0,
    )


def thermal_occupation(temperature: float, omega_m: float) -> float:
    """Mean thermal phonon number n_th = 1/(exp(hbar*omega_m/(k_B*T)) - 1).

    The T = 0 limit returns exactly 0.
    """
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if not omega_m > 0:
        raise ValueError("omega_m must be > 0")
    if temperature == 0.0:
        return 0.0
    return 1.0 / math.expm1(HBAR * omega_m / (K_B * temperature))


def _check_drive(power, kappa: float, omega_laser: float) -> None:
    if np.less(power, 0).any():
        raise ValueError("power must be >= 0")
    if not (kappa > 0 and omega_laser > 0):
        raise ValueError("kappa and omega_laser must be > 0")


@np.errstate(all="ignore")
def drive_amplitude(power, kappa: float, omega_laser: float):
    """Drive amplitude |E0| = sqrt(P0 * kappa / (2 * hbar * omega_laser)) (1/s).

    Scales as sqrt(P0); zero for an undriven cavity.  Elementwise over an
    array of powers.  A power too large for the product gives an infinite
    amplitude without a warning: the grid point then reads status ``error``.
    Raises ``ValueError`` for a negative power or a kappa or omega_laser that
    is not positive.
    """
    _check_drive(power, kappa, omega_laser)
    return _drive_amplitude(power, kappa, omega_laser)


def _drive_amplitude(power, kappa: float, omega_laser: float):
    """:func:`drive_amplitude` without its checks, under the caller's error
    state: it trusts a power >= 0 and kappa, omega_laser > 0."""
    return np.sqrt(power * kappa / (2.0 * HBAR * omega_laser))


# Config file schema: "key = value" lines, '#' comments.  Frequencies in Hz.
CONFIG_KEYS = (
    "omega_m_hz",
    "gamma_m_hz",
    "g0_hz",
    "kappa_hz",
    "kappa_convention",
    "power_w",
    "wavelength_m",
    "temperature_k",
    "beta",
    "eta_factor",
)

_KAPPA_FACTORS = {"two_pi": 2.0 * math.pi, "pi": math.pi}


def load_config(path: str | Path, base: PhysicalParams | None = None) -> PhysicalParams:
    """Load parameters from a plain-text ``key = value`` file.

    Unspecified keys keep the values of `base` (the defaults if omitted).
    `kappa_convention` selects kappa = 2*pi*kappa_hz (``two_pi``, default) or
    kappa = pi*kappa_hz (``pi``); the other frequencies are plain Hz values
    multiplied by 2*pi.
    """
    params = base if base is not None else default_params()
    raw: dict[str, str] = {}
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
        raw[key] = value

    def as_float(key: str) -> float:
        try:
            return float(raw[key])
        except ValueError as exc:
            raise ConfigError(f"invalid number for {key!r}: {raw[key]!r}") from exc

    two_pi = 2.0 * math.pi
    updates: dict[str, float] = {}
    if "omega_m_hz" in raw:
        updates["omega_m"] = two_pi * as_float("omega_m_hz")
    if "gamma_m_hz" in raw:
        updates["gamma_m"] = two_pi * as_float("gamma_m_hz")
    if "g0_hz" in raw:
        updates["g_m"] = two_pi * as_float("g0_hz")
    if "kappa_hz" in raw or "kappa_convention" in raw:
        convention = raw.get("kappa_convention", "two_pi")
        if convention not in _KAPPA_FACTORS:
            raise ConfigError(
                f"kappa_convention must be one of {sorted(_KAPPA_FACTORS)}, got {convention!r}"
            )
        kappa_hz = as_float("kappa_hz") if "kappa_hz" in raw else params.kappa / two_pi
        updates["kappa"] = _KAPPA_FACTORS[convention] * kappa_hz
    if "power_w" in raw:
        updates["power"] = as_float("power_w")
    if "wavelength_m" in raw:
        updates["laser_wavelength"] = as_float("wavelength_m")
    if "temperature_k" in raw:
        updates["temperature"] = as_float("temperature_k")
    if "beta" in raw:
        updates["beta"] = as_float("beta")
    if "eta_factor" in raw:
        updates["convention_eta_factor"] = as_float("eta_factor")

    try:
        return replace(params, **updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
