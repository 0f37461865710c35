"""Model fitting by gradient descent, and the matching estimation bounds.

The descent is deliberately plain: step along the negative gradient with an
exact line search (bracket, then Brent's method, until the bracket is no
wider than 1e-4 times the step).  The workhorse strategy is
sequential: minimize the noncoherent loss first to land inside the coherent
capture zone, then refine on the coherent loss.

Fisher information for white circular Gaussian noise, R = sigma^2 I, is
J = (2 / sigma^2) Re{G^H G}; the parameter covariance of any unbiased
estimator is bounded below by the inverse of the aspect-summed J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .loss import WeightMatrix, _as_batch, _Batch, batch_gradient, batch_loss
from .model import PointScatteringModel, RangeGrid, profile_jacobians, synthesize_profiles
from .waveform import LfmWaveform

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section fraction of the larger side
_TOL_FLOOR = 8.0 * float(np.finfo(float).eps)  # narrowest relative bracket floats resolve
_COND_LIMIT = 1e12
# line search: bracket growth (and shrink) factor, bracket steps allowed each
# way, and the bracket width, relative to the step, at which Brent stops
_BRACKET_GROWTH = 2.0
_MAX_BRACKET_STEPS = 40
_SECTION_TOL = 1e-4


def _is_count(v) -> bool:
    """An integer (Python or numpy), not a bool, not a float."""
    return isinstance(v, Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class DescentConfig:
    max_iters: int = 500
    loss_rel_tol: float = 1e-8
    grad_norm_tol: float = 1e-9

    # each check is written so that nan fails it: every comparison with nan is false
    def __post_init__(self):
        if not (_is_count(self.max_iters) and self.max_iters >= 0):
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        if not (0.0 <= self.loss_rel_tol < math.inf and 0.0 <= self.grad_norm_tol < math.inf):
            raise ValueError(
                f"tolerances must be finite and >= 0, got loss_rel_tol={self.loss_rel_tol}, "
                f"grad_norm_tol={self.grad_norm_tol}"
            )


@dataclass(frozen=True)
class FitReport:
    """Outcome of one descent run (or a sequential pair of runs).

    The residual is formed from the fit's plan when first read; a sequential
    fit never reads its noncoherent phase's.
    """

    model: PointScatteringModel
    theta: np.ndarray
    status: str  # "converged" | "max_iters" | "stalled"; the last phase's for a sequential fit
    loss_trace: tuple[tuple[int, float], ...]
    grad_norm_trace: tuple[float, ...]
    iterations: int
    loss_evals: int  # batch_loss calls, line searches included
    grad_evals: int  # batch_gradient calls
    phase_statuses: tuple[str, ...]  # one status per phase, in phase order
    phase_loss_evals: tuple[int, ...]  # batch_loss calls per phase, in phase order
    # the rule that ended each phase, in phase order: "grad_norm" or "loss_window"
    # (both "converged"), "max_iters" or "stalled"
    phase_stop_reasons: tuple[str, ...]
    phase_boundary: int | None = None  # trace index where the coherent phase starts
    _plan: _Batch | None = field(default=None, repr=False, compare=False)
    _wf: LfmWaveform | None = field(default=None, repr=False, compare=False)

    @cached_property
    def residual(self) -> np.ndarray:
        """(aspects, bins) complex z - g at the fitted model."""
        return self._plan.z - synthesize_profiles(self.model, self._wf, self._plan.grid, self._plan.lines)

    @property
    def final_loss(self) -> float:
        return self.loss_trace[-1][1]

    @property
    def residual_power(self) -> np.ndarray:
        """(aspects, bins) |z - g|^2."""
        return np.abs(self.residual) ** 2


def _finite(v: float) -> float:
    v = float(v)
    return v if math.isfinite(v) else math.inf


def _brent(f, lo: float, x: float, hi: float, fx: float, tol: float) -> tuple[float, float]:
    """Minimize f on [lo, hi] by Brent's method, from an interior x with f(x) = fx.

    Each step fits a parabola through the best three points (x, w, v) and
    takes its vertex when that lands well inside the bracket and moves less
    than half the step before last; otherwise it takes a golden-section step
    into the larger side.  No step is shorter than tol * x / 4, so the
    bracket closes from both sides.  Stops once [lo, hi] is no wider than
    tol * x and returns (x, f(x)), the best point evaluated.
    """
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while True:
        xm = 0.5 * (lo + hi)
        tol1 = 0.25 * max(tol, _TOL_FLOOR) * abs(x)
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (hi - lo):  # max(x - lo, hi - x) <= tol2
            return x, fx
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # written so that a nan from an infinite loss falls back to golden
            if abs(p) < abs(0.5 * q * e_prev) and q * (lo - x) < p < q * (hi - x):
                golden = False
                d = p / q
                if (x + d) - lo < tol2 or hi - (x + d) < tol2:
                    d = math.copysign(tol1, xm - x)
        if golden:
            e = (lo if x >= xm else hi) - x
            d = _CGOLD * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = _finite(f(u))
        if fu <= fx:
            if u >= x:
                lo = x
            else:
                hi = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def line_search(f, f0: float, initial_step: float = 1.0) -> tuple[float, float, bool]:
    """Exact 1-D minimization of a loss f(step) along a ray, given f0 = f(0).

    Brackets a minimum by geometric growth from the initial step, shrinking
    first if the initial step does not decrease f (the last step rejected
    then closes the bracket, so no step is evaluated twice); then Brent's method
    narrows the bracket until it is no wider than 1e-4 * step.  f is
    never evaluated at 0 or at a negative step.  Returns (step, f(step),
    stalled); stalled means no decrease was found, the step is 0 and the loss
    is f0.
    """
    f0 = _finite(f0)
    step = initial_step if np.isfinite(initial_step) and initial_step > 0.0 else 1.0
    fs = _finite(f(step))
    shrinks = 0
    hi = f_hi = None
    while fs >= f0:
        hi, f_hi = step, fs  # the step just rejected closes the bracket from above
        step /= _BRACKET_GROWTH
        shrinks += 1
        if shrinks > _MAX_BRACKET_STEPS:
            return 0.0, f0, True
        fs = _finite(f(step))
    # grow until the loss turns back up (or the growth budget runs out)
    lo, mid, f_mid = 0.0, step, fs
    if hi is None:
        hi = mid * _BRACKET_GROWTH
        f_hi = _finite(f(hi))
    grows = 0
    while f_hi < f_mid and grows < _MAX_BRACKET_STEPS:
        lo, mid, f_mid = mid, hi, f_hi
        hi *= _BRACKET_GROWTH
        f_hi = _finite(f(hi))
        grows += 1
    return _brent(f, lo, mid, hi, f_mid, _SECTION_TOL) + (False,)


def _plan(data) -> _Batch:
    """A fit's evaluation plan: data's observations stacked and checked once, or a plan passed through."""
    if isinstance(data, _Batch):
        return data
    return _as_batch(list(data.observations) if hasattr(data, "observations") else list(data))


def gradient_descent(
    data,
    model0: PointScatteringModel,
    wf: LfmWaveform,
    kind: str = "coherent",
    w: WeightMatrix | None = None,
    cfg: DescentConfig = DescentConfig(),
) -> FitReport:
    """Minimize one loss by steepest descent with exact line search.

    Each iteration steps theta -> theta - eta * grad, with eta chosen by
    line_search.  The search is seeded at 0.1 * loss / |grad|^2, except on
    the coherent loss from the third iteration on, where it is seeded at the
    step accepted two iterations back: steepest descent with exact steps
    zig-zags, so its step lengths alternate.  The noncoherent loss keeps the
    far seed, whose first probe can reach a deeper basin along the ray.
    Stops on a relative gradient-norm drop ("grad_norm"), on a flat loss
    window ("loss_window"), both status "converged", on a search that finds
    no decrease ("stalled"), or at max_iters; phase_stop_reasons names the
    rule.  The observations are stacked once into the fit's evaluation plan,
    which every batch_loss and batch_gradient call reads.
    """
    obs = _plan(data)  # every loss and gradient call of the fit reads this plan
    w = w or WeightMatrix.identity()
    theta = model0.pack()
    loss_evals = grad_evals = 0

    def loss_at(th: np.ndarray) -> float:
        nonlocal loss_evals
        loss_evals += 1
        return batch_loss(obs, model0.unpack(th), wf, w, kind)

    def grad_at(th: np.ndarray) -> np.ndarray:
        nonlocal grad_evals
        grad_evals += 1
        return batch_gradient(obs, model0.unpack(th), wf, w, kind)

    current = loss_at(theta)
    grad = grad_at(theta)
    gnorm = float(np.linalg.norm(grad))
    gnorm0 = gnorm
    losses = [current]
    gnorms = [gnorm]
    steps = []  # accepted step lengths
    reason = "max_iters"
    iterations = 0
    for _ in range(cfg.max_iters):
        if gnorm <= cfg.grad_norm_tol * gnorm0:
            reason = "grad_norm"
            break
        if kind == "coherent" and len(steps) >= 2:
            seed = steps[-2]
        else:
            seed = 0.1 * current / gnorm**2
        eta, stepped_loss, stalled = line_search(lambda s: loss_at(theta - s * grad), current, seed)
        if stalled:
            reason = "stalled"
            break
        steps.append(eta)
        theta = theta - eta * grad
        current = stepped_loss
        grad = grad_at(theta)
        gnorm = float(np.linalg.norm(grad))
        losses.append(current)
        gnorms.append(gnorm)
        iterations += 1
        if len(losses) >= 4:
            anchor = losses[-4]
            if anchor - current <= cfg.loss_rel_tol * max(anchor, np.finfo(float).tiny):
                reason = "loss_window"
                break
    status = "converged" if reason in ("grad_norm", "loss_window") else reason
    return FitReport(
        model=model0.unpack(theta),
        theta=theta,
        status=status,
        loss_trace=tuple(enumerate(losses)),
        grad_norm_trace=tuple(gnorms),
        iterations=iterations,
        loss_evals=loss_evals,
        grad_evals=grad_evals,
        phase_statuses=(status,),
        phase_loss_evals=(loss_evals,),
        phase_stop_reasons=(reason,),
        _plan=obs,
        _wf=wf,
    )


def sequential_fit(
    data,
    model0: PointScatteringModel,
    wf: LfmWaveform,
    w: WeightMatrix | None = None,
    cfg: DescentConfig = DescentConfig(),
    *,
    rough_cfg: DescentConfig | None = None,
    fine_cfg: DescentConfig | None = None,
) -> FitReport:
    """Noncoherent descent to localize, then coherent descent to refine.

    The combined trace concatenates both phases; phase_boundary is the index
    of the first coherent entry (the two phases score different losses, so
    the trace is only monotone within a phase). status is the coherent
    phase's; phase_statuses, phase_loss_evals and phase_stop_reasons hold one
    entry per phase, noncoherent first. rough_cfg and fine_cfg override cfg
    for their phase when the two need different budgets.
    """
    plan = _plan(data)  # one evaluation plan serves both phases
    rough = gradient_descent(plan, model0, wf, "noncoherent", w, rough_cfg or cfg)
    fine = gradient_descent(plan, rough.model, wf, "coherent", w, fine_cfg or cfg)
    merged = [v for _, v in rough.loss_trace] + [v for _, v in fine.loss_trace]
    return FitReport(
        model=fine.model,
        theta=fine.theta,
        status=fine.status,
        loss_trace=tuple(enumerate(merged)),
        grad_norm_trace=rough.grad_norm_trace + fine.grad_norm_trace,
        iterations=rough.iterations + fine.iterations,
        loss_evals=rough.loss_evals + fine.loss_evals,
        grad_evals=rough.grad_evals + fine.grad_evals,
        phase_statuses=rough.phase_statuses + fine.phase_statuses,
        phase_loss_evals=rough.phase_loss_evals + fine.phase_loss_evals,
        phase_stop_reasons=rough.phase_stop_reasons + fine.phase_stop_reasons,
        phase_boundary=len(rough.loss_trace),
        _plan=plan,
        _wf=wf,
    )


def fisher_info(jac, sigma2: float) -> np.ndarray:
    """(P, P) J = (2 / sigma2) Re{G^H G} of an (m, P) Jacobian G, for white noise R = sigma2 * I."""
    if sigma2 <= 0.0:
        raise ValueError(f"noise power must be > 0, got {sigma2}")
    g = np.asarray(jac)
    j = (2.0 / sigma2) * (np.conj(g).T @ g).real
    return (j + j.T) / 2.0


@dataclass(frozen=True)
class CrlbResult:
    """Aspect-summed Fisher information and, when invertible, the bound."""

    fisher: np.ndarray
    covariance: np.ndarray | None
    null_space: np.ndarray | None
    condition: float

    @property
    def identifiable(self) -> bool:
        return self.covariance is not None

    @property
    def std_bounds(self) -> np.ndarray | None:
        """Per-slot standard-deviation lower bounds sqrt(diag)."""
        if self.covariance is None:
            return None
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


def crlb_from_fisher(fisher) -> CrlbResult:
    """Invert a (P, P) Fisher matrix, or report the unidentifiable subspace."""
    fisher = np.array(fisher, dtype=float)
    vals, vecs = np.linalg.eigh(fisher)
    vmax = float(vals.max(initial=0.0))
    vmin = float(vals.min()) if vals.size else 0.0
    cond = np.inf if vmin <= 0.0 else vmax / vmin
    if vmax <= 0.0 or cond > _COND_LIMIT:
        weak = vals <= vmax / _COND_LIMIT
        return CrlbResult(fisher, None, vecs[:, weak], cond)
    cov = (vecs / vals) @ vecs.T
    return CrlbResult(fisher, (cov + cov.T) / 2.0, None, cond)


def crlb(
    model: PointScatteringModel,
    wf: LfmWaveform,
    grid: RangeGrid,
    lines,
    sigma2: float,
) -> CrlbResult:
    """Parameter bound for a model observed from a set of sight lines."""
    _, jmat = profile_jacobians(model, wf, grid, lines)
    return crlb_from_fisher(fisher_info(jmat.reshape(-1, model.n_params), sigma2))
