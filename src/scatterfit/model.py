"""Range-profile synthesis for point-scattering models, with exact Jacobians.

The sampled profile for a sight line l is

    g(b_k) = sum_n gamma_n(l) * a_n * R(2*(b_k + p_n.l)/c)

where R is the pulse autocorrelation, a_n the complex amplitude, p_n the
scatterer position, and gamma_n = exp(j*4*pi*fc*(p_n.l)/c) the two-way
carrier phase.  Every factor is differentiable in the scatterer slots, so
the profile Jacobian follows from

    d g / d theta_n = gamma*R * da/dtheta
                    + a*gamma * (j*4*pi*fc/c * R + 2/c * dR/dtau) * d(p.l)/dtheta

with d(p.l)/dtheta = P^T l from the position model Jacobian P.

A model is compiled once into a layout that groups its scatterers by
primitive type.  The forward pass then has no loop over scatterers: each
type's primitive evaluates the slot rows of all its scatterers in one call,
projected ranges and amplitudes are (N, K) arrays, the kernel runs once on
the (N, K, m) lags, the profiles are a sum over N, and each scatterer's
block of Jacobian columns is written in one product into a slot-major
(P, K, m) array, whose (K, m, P) view is returned.

The same pass evaluates a stack of B slot vectors (B, P) for one layout.
Each type's slot rows are folded to (B*n, n_slots), so the primitives run
once per type for the whole stack, and the arrays above gain a leading
stack axis: (B, N, K, m) lags and a (B, P, K, m) Jacobian.  Each row of
them is laid out as the arrays of a pass over that row alone, so every
product and sum runs in the same order, and the profiles (B, K, m) and
Jacobians (B, K, m, P) are bit-identical, row by row, to B separate passes.

All sight lines share one range grid.  What stays fixed through a fit is
not rebuilt per call.  A (K, 3) float line stack, such as the read-only one
a fit's plan holds, passes through unconverted; the grid keeps its (m,)
bins; a slipping ring keeps its azimuth direction for a read-only line
stack; and the kernel's scalar factors live on the waveform.  Each
call still forms the projected ranges, amplitudes, carrier phase, lags
(b + p.l)*2/c and kernel from theta: the bin part 2*b/c is not hoisted,
because 2*b/c + 2*(p.l)/c rounds differently from (b + p.l)*2/c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from numbers import Integral

import numpy as np

from .constants import C_LIGHT
from .geometry import DegenerateGeometryError, SightLine
from .scatterer import Scatterer
from .waveform import LfmWaveform


@dataclass(frozen=True)
class RangeGrid:
    """Uniform range sampling: bin k is b0 + k*delta, k = 0..m-1."""

    b0: float
    delta: float
    m: int

    def __post_init__(self):
        if not (np.isfinite(self.b0) and np.isfinite(self.delta)):
            raise ValueError(f"grid origin and spacing must be finite, got b0={self.b0}, delta={self.delta}")
        if self.delta <= 0.0:
            raise ValueError(f"grid spacing must be > 0, got {self.delta}")
        if isinstance(self.m, bool) or not isinstance(self.m, Integral):
            raise ValueError(f"bin count must be an integer, got {self.m!r}")
        if self.m < 1:
            raise ValueError(f"grid needs at least one bin, got {self.m}")

    @cached_property
    def bins(self) -> np.ndarray:
        """Bin ranges (m,), computed once per grid and read-only."""
        bins = self.b0 + self.delta * np.arange(self.m)
        bins.setflags(write=False)
        return bins


class _Layout:
    """A model's structure, compiled once: per-scatterer slot slices and per-type groups.

    amplitudes and positions hold one (kind, rows, cols, blocks) tuple per
    primitive type, in order of first appearance: the primitive class, the
    index of its scatterers (a slice when they are consecutive, else their
    (n,) indices), the (n, n_slots) theta columns of their slots, and per
    scatterer the one-row slice of its index and the slice of those
    (consecutive) columns.  prototypes are the scatterers the layout was
    compiled from; every model sharing it rebuilds its own scatterers from
    them and its theta.
    """

    def __init__(self, scatterers: tuple[Scatterer, ...]):
        self.prototypes = scatterers
        self.slices, start = [], 0
        for s in scatterers:
            self.slices.append(slice(start, start + s.n_slots))
            start += s.n_slots
        self.n_params = start
        self.amplitudes = self._groups([(s.amplitude_model, sl.start) for s, sl in zip(scatterers, self.slices)])
        self.positions = self._groups(
            [(s.position_model, sl.start + s.amplitude_model.n_slots) for s, sl in zip(scatterers, self.slices)]
        )

    @staticmethod
    def _groups(parts) -> tuple[tuple[type, slice | np.ndarray, np.ndarray, tuple[tuple[slice, slice], ...]], ...]:
        """Group (primitive, theta column of its first slot) pairs, one per scatterer, by type."""
        members: dict[type, list[tuple[int, int]]] = {}
        for index, (prim, first) in enumerate(parts):
            members.setdefault(type(prim), []).append((index, first))
        groups = []
        for kind, rows in members.items():
            width = len(kind.slot_names)
            index, first = np.array(rows, dtype=np.intp).T
            if np.all(np.diff(index) == 1):  # consecutive rows are written through a view, not a gather
                index = slice(index[0], index[-1] + 1)
            blocks = tuple((slice(i, i + 1), slice(f, f + width)) for i, f in rows)
            groups.append((kind, index, first[:, None] + np.arange(width), blocks))
        return tuple(groups)


class PointScatteringModel:
    """An ordered collection of scatterers with one flat parameter vector.

    The scatterers are compiled once into a layout that groups them by
    primitive type; the model itself is that layout plus theta, so
    ``unpack`` swaps theta in O(1) and the forward pass evaluates each type's
    scatterers together.  ``scatterers`` is rebuilt from theta on first use.
    """

    def __init__(self, scatterers):
        scatterers = tuple(scatterers)
        self._layout = _Layout(scatterers)
        theta = np.array([v for s in scatterers for v in s.params], dtype=float)
        theta.setflags(write=False)
        self._theta = theta
        self.__dict__["scatterers"] = scatterers

    def __repr__(self) -> str:
        return f"PointScatteringModel({self.scatterers!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointScatteringModel):
            return NotImplemented
        return self.scatterers == other.scatterers

    def __hash__(self) -> int:
        return hash(self.scatterers)

    @cached_property
    def scatterers(self) -> tuple[Scatterer, ...]:
        return tuple(s.with_params(self._theta[sl]) for s, sl in zip(self._layout.prototypes, self._layout.slices))

    @property
    def n_params(self) -> int:
        return self._layout.n_params

    def slot_slices(self) -> list[slice]:
        """Per-scatterer slices into the packed parameter vector."""
        return list(self._layout.slices)

    def slot_labels(self) -> list[str]:
        return [f"s{i}.{name}" for i, s in enumerate(self._layout.prototypes) for name in s.slot_names]

    def pack(self) -> np.ndarray:
        return self._theta.copy()

    def unpack(self, theta) -> "PointScatteringModel":
        """The same scatterers with new slot values; shares this model's layout."""
        theta = np.array(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got shape {theta.shape}")
        theta.setflags(write=False)
        model = object.__new__(PointScatteringModel)
        model._layout = self._layout
        model._theta = theta
        return model


_FLOAT = np.dtype(float)

try:  # np.einsum without optimize calls this C function after a Python dispatch layer
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # pragma: no cover - other numpy layouts
    _einsum = np.einsum


def _as_line_stack(lines) -> np.ndarray:
    """Sight lines as a (K, 3) array: one SightLine, a list or tuple of them, or vectors.

    A (K, 3) float array, such as the read-only stack a fit prepares, is
    passed through as is.
    """
    if type(lines) is np.ndarray and lines.dtype is _FLOAT and lines.ndim == 2 and lines.shape[1] == 3:
        return lines
    if isinstance(lines, SightLine):
        return lines.vec[None, :]
    if isinstance(lines, (list, tuple)):
        lines = [l.vec if isinstance(l, SightLine) else l for l in lines]
    arr = np.asarray(lines, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected sight lines with shape (K, 3), got {arr.shape}")
    return arr


def _theta_stack(model: PointScatteringModel, thetas) -> np.ndarray:
    """A checked (B, P) float stack of slot vectors for the model's layout."""
    stack = np.asarray(thetas, dtype=float)
    if stack.ndim != 2 or stack.shape[0] < 1 or stack.shape[1] != model.n_params:
        raise ValueError(f"expected a (B, {model.n_params}) stack of parameters with B >= 1, got shape {stack.shape}")
    return stack


def _group_slots(groups, theta: np.ndarray) -> list[np.ndarray]:
    """Each type group's slot rows: (n, n_slots) from one theta (P,), or from a
    stack (B, P) the (B*n, n_slots) rows of its B copies, stack-major."""
    if theta.ndim == 1:
        return [theta[cols] for _, _, cols, _ in groups]
    return [theta.take(cols, axis=1).reshape(-1, cols.shape[1]) for _, _, cols, _ in groups]


def _unfold(values: np.ndarray, b: int) -> np.ndarray:
    """A primitive's result over the (B*n, n_slots) rows of a stack of b slot
    vectors, with the stack axis split out: (B*n, ...) -> (B, n, ...), and a
    broadcast (1, ...) -> (1, 1, ...)."""
    return values.reshape((b if len(values) > 1 else 1, -1) + values.shape[1:])


def _projected_ranges(layout: _Layout, slots: list[np.ndarray], lines: np.ndarray, stack: int | None) -> np.ndarray:
    """p.l for every scatterer and sight line, (N, K) or, for a stack of that
    many slot vectors, (B, N, K), with the scatterer named on error.  slots
    holds each position group's slot rows."""
    n = len(layout.prototypes)
    pl = np.empty((n, lines.shape[0]) if stack is None else (stack, n, lines.shape[0]))
    for (kind, rows, _, _), group_slots in zip(layout.positions, slots):
        try:
            pos = kind.positions(group_slots, lines)
        except DegenerateGeometryError as err:
            raise DegenerateGeometryError(f"scatterer {np.arange(n)[rows][0]}: {err}") from None
        if stack is None:
            pl[rows] = _einsum("nkj,kj->nk", pos, lines)
        else:
            pl[:, rows] = _unfold(_einsum("nkj,kj->nk", pos, lines), stack)
    return pl


def _per_row(values: np.ndarray, n: int):
    """The n leading-axis rows of a primitive's result, whose leading axis may be 1 and broadcast."""
    return repeat(values[0], n) if len(values) == 1 else values


def _forward(model: PointScatteringModel, wf: LfmWaveform, bins: np.ndarray, lines, jacobian: bool, thetas=None):
    """Profiles (K, m) and, when asked, Jacobians (K, m, P) for all scatterers at once.

    bins holds the (m,) bin ranges every sight line shares.  The kernel runs
    once on the (N, K, m) lags; the profile is the sum over the N
    scatterers.  The Jacobian lives in a slot-major (P, K, m) array: each
    scatterer's consecutive amplitude slots, then its position slots, are
    one block of rows written by one product, and the (K, m, P) view of that
    array is returned.  With a (B, P) stack thetas, each array gains a
    leading stack axis, (B, N, K, m) and (B, P, K, m), so each row is laid
    out as the arrays of a pass over that row alone; the results are
    (B, K, m) and (B, K, m, P).

    One slot vector runs without the stack axis rather than as a one-row
    stack, indexing theta[cols] directly: folding and unfolding a stack adds
    a few microseconds a call, 5-10% of a forward pass at the single-profile
    size.
    """
    layout = model._layout
    if thetas is None:
        # stack is the stack size (None for one slot vector); at indexes the stack
        # axis; slots_first and last are the primitive-result and Jacobian
        # transposes: (n, K, n_slots) -> (n, n_slots, K), (P, K, m) -> (K, m, P)
        theta, stack, at, slots_first, last = model._theta, None, (), (0, 2, 1), (1, 2, 0)
    else:
        theta = _theta_stack(model, thetas)
        stack, at, slots_first, last = len(theta), (slice(None),), (1, 0, 3, 2), (0, 2, 3, 1)
    lmat = _as_line_stack(lines)
    pos_slots = _group_slots(layout.positions, theta)
    amp_slots = _group_slots(layout.amplitudes, theta)
    pl = _projected_ranges(layout, pos_slots, lmat, stack)
    a = np.empty(pl.shape, dtype=complex)
    for (kind, rows, _, _), slots in zip(layout.amplitudes, amp_slots):
        values = kind.values(slots, lmat)
        a[at + (rows,)] = values if stack is None else _unfold(values, stack)
    k4 = 4.0 * np.pi * wf.fc / C_LIGHT
    gamma = np.exp(1j * k4 * pl)
    ag = a * gamma
    tau = bins + pl[..., None]
    tau *= 2.0
    tau /= C_LIGHT
    if not jacobian:
        return np.add.reduce(ag[..., None] * wf.autocorr(tau), axis=-3), None
    # Products of two complex arrays always go to an output distinct from both
    # operands: numpy may pick another loop (with other rounding) when the
    # output aliases an input.  Scaling by a real, or by a purely imaginary
    # scalar, rounds the same either way, so it is done in place.
    r, dr = wf.autocorr(tau, deriv=True)
    scratch = ag[..., None] * r
    out = np.add.reduce(scratch, axis=-3)
    # one slot's (K, m) block per row
    by_slot = np.empty(pl.shape[:-2] + (layout.n_params, lmat.shape[0], len(bins)), dtype=complex)
    # d g / d(amplitude slots) = gamma * R * da/dtheta
    gr = np.multiply(gamma[..., None], r, out=scratch)
    for (kind, _, _, blocks), slots in zip(layout.amplitudes, amp_slots):
        grad = kind.gradients(slots, lmat)
        grad = (grad if stack is None else _unfold(grad, stack)).transpose(slots_first)[..., None]
        for (row, span), d in zip(blocks, _per_row(grad, len(blocks))):
            np.multiply(gr[at + (row,)], d, out=by_slot[at + (span,)])
    # d g / d(position slots) = a * gamma * (j*k4*R + 2/c * dR/dtau) * d(p.l)/dtheta
    d_range = np.multiply(1j * k4, r, out=r)  # d(gamma*R)/d(p.l) / gamma
    d_range += np.multiply(2.0 / C_LIGHT, dr, out=dr)
    radial = np.multiply(ag[..., None], d_range, out=scratch)
    for (kind, _, _, blocks), slots in zip(layout.positions, pos_slots):
        u = _einsum("nkij,ki->nkj", kind.jacobians(slots, lmat), lmat)
        u = (u if stack is None else _unfold(u, stack)).transpose(slots_first)[..., None]
        for (row, span), d in zip(blocks, _per_row(u, len(blocks))):
            np.multiply(radial[at + (row,)], d, out=by_slot[at + (span,)])
    return out, by_slot.transpose(last)


def _bins(grid: RangeGrid) -> np.ndarray:
    """The grid's (m,) bin ranges; anything but one grid is refused by name."""
    try:
        return grid.bins
    except AttributeError:
        raise TypeError(
            f"expected one RangeGrid: all sight lines share one range grid, got {type(grid).__name__}"
        ) from None


def synthesize_profiles(
    model: PointScatteringModel, wf: LfmWaveform, grid: RangeGrid, lines, thetas=None
) -> np.ndarray:
    """Profiles for a stack of sight lines on one range grid: complex (K, m) array.

    thetas, if given, is a (B, P) stack of slot vectors for the model's
    scatterers; the result is then (B, K, m), and row b is bit-identical to
    the profiles of ``model.unpack(thetas[b])``.
    """
    return _forward(model, wf, _bins(grid), lines, False, thetas)[0]


def profile_jacobians(
    model: PointScatteringModel, wf: LfmWaveform, grid: RangeGrid, lines, thetas=None
) -> tuple[np.ndarray, np.ndarray]:
    """Profiles (K, m) and d(profile)/d(slots) (K, m, P) for a stack of sight lines.

    thetas is as for ``synthesize_profiles``, and the profiles are
    bit-identical to it; with thetas the results are (B, K, m) and
    (B, K, m, P), each row bit-identical to a call on that row's model.
    The Jacobian is a view of a slot-major array, so each slot's (K, m)
    block is contiguous; ``jac.reshape(-1, P)`` is still a view, and so is a
    stack's ``jac.reshape(B, -1, P)``.
    """
    return _forward(model, wf, _bins(grid), lines, True, thetas)
