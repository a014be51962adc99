"""Moist-thermodynamic helpers shared by the microphysics processes.

Saturation formulas follow the Magnus/Tetens fits WRF's physics use;
units: temperature [K], pressure [mb], mixing ratios [g/g] (i.e. kg/kg
numerically), densities [g/cm^3].
"""

from __future__ import annotations

import numpy as np

from repro.constants import C_P, EPS, L_F, L_S, L_V, T_0


def saturation_vapor_pressure_water(temperature: np.ndarray) -> np.ndarray:
    """Saturation vapor pressure over liquid water [mb] (Tetens)."""
    t = np.asarray(temperature, dtype=np.float64)
    tc = t - T_0
    return 6.112 * np.exp(17.67 * tc / (tc + 243.5))


def saturation_vapor_pressure_ice(temperature: np.ndarray) -> np.ndarray:
    """Saturation vapor pressure over ice [mb] (Magnus, ice branch)."""
    t = np.asarray(temperature, dtype=np.float64)
    tc = t - T_0
    return 6.112 * np.exp(21.8745584 * tc / (tc + 265.5))


def saturation_mixing_ratio(
    temperature: np.ndarray, pressure_mb: np.ndarray, over: str = "water"
) -> np.ndarray:
    """Saturation mixing ratio q_s [g/g]."""
    if over == "water":
        es = saturation_vapor_pressure_water(temperature)
    elif over == "ice":
        es = saturation_vapor_pressure_ice(temperature)
    else:
        raise ValueError("over must be 'water' or 'ice'")
    p = np.asarray(pressure_mb, dtype=np.float64)
    es = np.minimum(es, 0.5 * p)  # keep the denominator sane at extremes
    return EPS * es / (p - es)


def supersaturation(
    qv: np.ndarray, temperature: np.ndarray, pressure_mb: np.ndarray, over: str = "water"
) -> np.ndarray:
    """Fractional supersaturation S = q_v / q_s - 1."""
    qs = saturation_mixing_ratio(temperature, pressure_mb, over)
    return qv / qs - 1.0


def condensational_growth_coefficient(
    temperature: np.ndarray, pressure_mb: np.ndarray
) -> np.ndarray:
    """Diffusional growth coefficient G [cm^2/s] in ``r dr/dt = G S``.

    Combines the vapor-diffusion and heat-conduction resistances; the
    magnitude (~1e-6 cm^2/s at 1 % supersaturation and 0 C) matches the
    classic droplet-growth value.
    """
    t = np.asarray(temperature, dtype=np.float64)
    p = np.asarray(pressure_mb, dtype=np.float64)
    # Vapor diffusivity grows with T and falls with p.
    diff = 1.0e-6 * (t / T_0) ** 1.94 * (1000.0 / p)
    # Heat-conduction resistance strengthens at cold temperatures.
    heat = 1.0 + 6.0e-3 * np.maximum(T_0 - t, 0.0)
    return diff / heat


def latent_heat_factor(process: str = "condensation") -> float:
    """``L / c_p`` [K per g/g] of one phase change."""
    if process == "condensation":
        latent = L_V
    elif process == "deposition":
        latent = L_S
    elif process == "freezing":
        latent = L_F
    else:
        raise ValueError(f"unknown process {process!r}")
    return latent / C_P


def latent_heating(
    dq_cond: np.ndarray, process: str = "condensation"
) -> np.ndarray:
    """Temperature increment [K] from a condensate increment [g/g]."""
    return latent_heat_factor(process) * np.asarray(dq_cond)
