"""Signal, interference and SINR arithmetic, all in linear mW.

Also implements the measurement trick each BS uses to estimate the
inter-cell interference hitting its own users: reconstruct the serving
power and intra-cell interference from local knowledge, divide the
user-reported SINR out of the serving power to get total received
power-plus-noise, and subtract the known parts. When the report comes
from the same power/beam/channel snapshot the estimate matches the true
aggregate to float precision. Every cell does this at once: one stacked
product over the serving-CSI diagonal, with cells as the leading axis.

``received_powers`` and ``sinr`` take optional leading batch axes: with
powers and beams of shape (..., L, U), every field of the PowerTable and
the SINR carry the same leading axes, and each batch row equals the
unbatched call on that row bit for bit. The oracle searches tabulate
their candidates this way, batch row i being every cell's candidate i,
then gather each pick's terms from the table. The step and the oracle
entries check the beams; every power is ``db_to_linear``'s, so >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, Codebook
from .errors import ContractViolation, MeasurementError


@dataclass
class PowerTable:
    """Per-user received power decomposition, linear mW.

    inter_by_source[..., l, u, j] is the interference user (l, u)
    receives from BS j; the diagonal j == l is zero by definition. The
    leading axes "..." are the batch axes of the received_powers call.
    """

    serving: np.ndarray          # (..., L, U)
    intra: np.ndarray            # (..., L, U)
    inter_by_source: np.ndarray  # (..., L, U, L)
    inter_total: np.ndarray      # (..., L, U), sum over sources


def _beam_gain(channels: np.ndarray, beams: np.ndarray,
               codebook: Codebook) -> np.ndarray:
    """|h^H w|^2 for every (serving l, source j, victim u, tx user k).

    channels: (L, L, U, M); beams: (..., L, U) codebook indices of every
    transmit user. Returns (..., L, L, U, U) where the last axis is the
    transmitting user k of source cell j.
    """
    w = codebook.vectors.take(beams, axis=0)  # (..., L, U, M)
    # inner product between victim channel (l, j, u, :) and beam (j, k, :)
    inner = np.einsum("ljum,...jkm->...ljuk", np.conj(channels), w)
    return np.abs(inner) ** 2


def received_powers(channels: ChannelSet, powers_mw: np.ndarray,
                    beam_indices: np.ndarray, codebook: Codebook) -> PowerTable:
    """Decompose every user's received power into serving/intra/inter.

    powers_mw and beam_indices, checked by the caller, are (L, U), or
    (..., L, U) with one leading batch shape, which the table carries too.
    """
    L, Lj, U, M = channels.vectors.shape
    powers_mw = np.asarray(powers_mw, dtype=float)
    beam_indices = np.asarray(beam_indices)
    if powers_mw.shape[-2:] != (L, U) \
            or beam_indices.shape != powers_mw.shape:
        raise ContractViolation(
            "powers and beam indices must be (..., L, U) of one shape")
    if codebook.antennas != M:
        raise ContractViolation("codebook antenna count does not match channels")

    gains = _beam_gain(channels.vectors, beam_indices, codebook)
    # (..., L, L, U, U): P_{j,k} |.|^2
    weighted = powers_mw[..., None, :, None, :] * gains

    ell = np.arange(L)
    u = np.arange(U)
    # advanced indexing copies: own is the (..., L, U, U) same-cell
    # terms and serving their diagonal, taken before it is cleared
    own = weighted[..., ell, ell, :, :]
    serving = own[..., u, u]
    own[..., u, u] = 0.0
    intra = own.sum(axis=-1)

    # (..., L, U, L): interference on victim (l, u) from each source j
    inter_by_source = weighted.sum(axis=-1).swapaxes(-1, -2).copy()
    inter_by_source[..., ell, :, ell] = 0.0
    inter_total = inter_by_source.sum(axis=-1)

    return PowerTable(serving=serving, intra=intra,
                      inter_by_source=inter_by_source,
                      inter_total=inter_total)


def sinr(table: PowerTable, noise_mw: float) -> np.ndarray:
    """Per-user SINR, linear: serving / (noise + intra + inter), with the
    table's batch axes."""
    if noise_mw <= 0:
        raise ContractViolation("noise power must be positive")
    return table.serving / (noise_mw + table.intra + table.inter_total)


def measure_inter_cell(reported_sinr: np.ndarray, prev_powers_mw: np.ndarray,
                       prev_beams: np.ndarray, prev_channels: ChannelSet,
                       noise_mw: float, codebook: Codebook) -> np.ndarray:
    """Estimate aggregate inter-cell interference from SINR reports.

    Each BS uses only its own cell's channels, powers and beams: the
    slice [l, l, u] of the channel tensor. All cells are measured in one
    call: the (L, U, M) serving diagonal times the (L, M, U) beams gives
    every cell's (victim, beam) gains at once. Reports, powers and beams
    must all be (L, U); ``Environment.step`` has checked the powers and
    beams. Raises MeasurementError for non-positive reports
    (a real report of a received signal is > 0).
    """
    L, _, U, _ = prev_channels.vectors.shape
    reported_sinr = np.asarray(reported_sinr, dtype=float)
    prev_powers_mw = np.asarray(prev_powers_mw, dtype=float)
    prev_beams = np.asarray(prev_beams)
    if reported_sinr.shape != (L, U):
        raise ContractViolation("reported SINR must be (L, U)")
    if prev_powers_mw.shape != (L, U) or prev_beams.shape != (L, U):
        raise ContractViolation("powers and beam indices must be (L, U)")
    usable = (reported_sinr > 0.0) & (reported_sinr < np.inf)  # NaN fails
    if np.count_nonzero(usable) < usable.size:
        raise MeasurementError("SINR reports must be positive and finite")

    ell = np.arange(L)
    u = np.arange(U)
    h = prev_channels.vectors[ell, ell]  # (L, U, M) local CSI only
    w = codebook.vectors.take(prev_beams, axis=0)  # (L, U, M)
    # (L, U victim, U beam)
    inner = np.abs(np.conj(h) @ w.swapaxes(-1, -2)) ** 2
    per_user = prev_powers_mw[:, None, :] * inner
    serving = per_user[:, u, u]  # a copy, taken before the diagonal is cleared
    per_user[:, u, u] = 0.0
    intra = per_user.sum(axis=-1)
    total_received = serving / reported_sinr  # noise + intra + inter
    return total_received - noise_mw - intra
