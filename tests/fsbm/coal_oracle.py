"""The dense pair-tensor collision step: the sparse engine's oracle.

A direct vectorized transcription of the scalar triple loop. Each
interaction materializes the pair-event tensor ``E[p, i, j]`` per point
and contracts it against the dense ``(nkr, nkr, nkr)`` Kovetz–Olund
split tensor, with the production step's selection cascade and
occupied rectangle. It needs none of the triangular structure the
production engines rely on, which is what makes it their reference.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.fsbm.coal_bott import CoalSelection, _pair_split, _pressure_weights
from repro.fsbm.collision_kernels import KernelTables, get_tables
from repro.fsbm.species import INTERACTIONS, Interaction, Species


@lru_cache(maxsize=4)
def _split_tensor(nkr: int) -> np.ndarray:
    """``G[k, i, j]``: number-fraction of pair (i, j) landing in bin k.

    Slices of the tensor sum to 1 over ``k`` inside the grid; top-bin
    overflow conserves mass with a reduced number weight. Shared by all
    interactions because every species grid uses the same mass ladder.
    """
    ps = _pair_split(nkr)
    g = np.zeros((nkr, nkr * nkr))
    flat = np.arange(nkr * nkr)
    np.add.at(g, (ps.k_lo.ravel(), flat), ps.w_lo.ravel())
    np.add.at(g, (ps.k_hi.ravel(), flat), ps.w_hi.ravel())
    return g.reshape(nkr, nkr, nkr)


def _apply_dense(
    dists: dict[Species, np.ndarray],
    ix: Interaction,
    idx: np.ndarray,
    a_full: np.ndarray,
    b_full: np.ndarray,
    na: int,
    nb: int,
    ws: np.ndarray,
    dt: float,
    dtype: np.dtype,
    tables: KernelTables,
    nkr: int,
    g_split: np.ndarray,
) -> None:
    """One interaction's update via the dense pair-tensor contraction."""
    n_a = dists[ix.collector]
    n_b = dists[ix.collected]
    a = a_full[:, :na].astype(dtype)
    b = b_full[:, :nb].astype(dtype)

    k500 = tables.tables_500[ix.name][:na, :nb].ravel().astype(dtype)
    kdel = (
        (tables.tables_750[ix.name] - tables.tables_500[ix.name])[:na, :nb]
        .ravel()
        .astype(dtype)
    )
    g_sub = g_split[:, :na, :nb].reshape(nkr, na * nb).astype(dtype)

    # Pair-event rates E[p, i*nb+j] at each point's pressure.
    outer = (a[:, :, None] * b[:, None, :]).reshape(len(idx), na * nb)
    events = outer * k500[None, :] + (outer * ws[:, None]) * kdel[None, :]
    if ix.self_collection:
        events *= dtype.type(0.5)

    ev = events.reshape(len(idx), na, nb)
    if ix.self_collection:
        loss = ev.sum(axis=2) * dt
        loss = loss + ev.sum(axis=1) * dt
        f_a = np.minimum(1.0, a / np.maximum(loss, 1e-30)).astype(dtype)
        ev = ev * (f_a[:, :, None] * f_a[:, None, :])
        loss = (ev.sum(axis=2) + ev.sum(axis=1)) * dt
        gain = (ev.reshape(len(idx), na * nb) @ g_sub.T) * dt
        a_new = a_full.copy()
        a_new[:, :na] = np.maximum(a - loss, 0.0)
        if ix.product is ix.collector:
            n_a[idx] = np.maximum(a_new + gain, 0.0)
        else:
            n_a[idx] = a_new
            dists[ix.product][idx] += gain
    else:
        loss_a = ev.sum(axis=2) * dt
        loss_b = ev.sum(axis=1) * dt
        f_a = np.minimum(1.0, a / np.maximum(loss_a, 1e-30)).astype(dtype)
        f_b = np.minimum(1.0, b / np.maximum(loss_b, 1e-30)).astype(dtype)
        ev = ev * (f_a[:, :, None] * f_b[:, None, :])
        gain = (ev.reshape(len(idx), na * nb) @ g_sub.T) * dt
        a_new = a_full.copy()
        b_new = b_full.copy()
        a_new[:, :na] = np.maximum(a - ev.sum(axis=2) * dt, 0.0)
        b_new[:, :nb] = np.maximum(b - ev.sum(axis=1) * dt, 0.0)
        if ix.product is ix.collector:
            n_a[idx] = a_new + gain
            n_b[idx] = b_new
        elif ix.product is ix.collected:
            n_a[idx] = a_new
            n_b[idx] = b_new + gain
        else:
            n_a[idx] = a_new
            n_b[idx] = b_new
            dists[ix.product][idx] += gain


def dense_coal_step(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    dt: float,
    occupied: dict[Species, np.ndarray] | None,
    dtype: np.dtype | type = np.float64,
) -> None:
    """One member's collision step through the dense contraction, in place.

    Interactions run in order on the selection cascade
    (:class:`CoalSelection`, refreshed after each one), each over its
    selected points' occupied ``(na, nb)`` rectangle — the
    production step's semantics, one contraction per interaction.
    """
    tables = get_tables()
    nkr = next(iter(dists.values())).shape[1]
    dtype = np.dtype(dtype)
    w_full = _pressure_weights(pressure_mb, dtype)
    g_split = _split_tensor(nkr)
    live = CoalSelection.build(dists, temperature)
    for ix in INTERACTIONS:
        sel = live.mask(ix)
        if not sel.any():
            continue
        rows = np.flatnonzero(sel)
        if occupied is not None:
            na = max(1, int(occupied[ix.collector][rows].max()))
            nb = max(1, int(occupied[ix.collected][rows].max()))
        else:
            na = nb = nkr
        _apply_dense(
            dists, ix, rows, dists[ix.collector][rows],
            dists[ix.collected][rows], na, nb, w_full[rows], dt, dtype,
            tables, nkr, g_split,
        )
        live.refresh(dists, {ix.collector, ix.collected, ix.product}, rows)
