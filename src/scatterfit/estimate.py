"""Model fitting by gradient descent, and the matching estimation bounds.

The descent is deliberately plain: step along the negative gradient with an
exact line search (bracket, then Brent's method, until the bracket is no
wider than 1e-4 times the step).  A coherent search seeded at the step
accepted two iterations back starts near its minimum: it steps to the
minimum of a quadratic model and certifies it with a three-point stencil
1e-4 times the step wide, evaluated as one theta stack, and falls back to
the bracket when that fails.  The workhorse strategy is
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

import numpy as np

from .loss import WeightMatrix, _as_batch, _Batch, batch_gradient, batch_loss
from .model import PointScatteringModel, RangeGrid, _is_count, profile_jacobians, synthesize_profiles
from .waveform import LfmWaveform

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section fraction of the larger side
_TOL_FLOOR = 8.0 * float(np.finfo(float).eps)  # narrowest relative bracket floats resolve
_COND_LIMIT = 1e12
# line search: bracket growth (and shrink) factor, bracket steps allowed each
# way, and the bracket width, relative to the step, at which Brent stops
_BRACKET_GROWTH = 2.0
_MAX_BRACKET_STEPS = 40
_SECTION_TOL = 1e-4
# warm line search: stencils tried before it falls back to the bracket
_WARM_ROUNDS = 8
# lags (scatterers x aspects x bins) of one slot vector up to which a stack of
# three runs as one forward pass; above it, row by row is faster.  Measured on
# a 2-vCPU Xeon: a 3-row stack takes x0.42 the time of its rows at 123 lags,
# x0.72 at 1722, x0.76-1.07 at 1968 and x1.39 at 7872 (the static pattern)
_STACK_LAGS = 1800


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


@dataclass(frozen=True, eq=False)
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
    loss_evals: int  # loss values computed, line searches included; each row of a stacked call counts
    loss_calls: int  # batch_loss calls, stacked or single
    grad_evals: int  # batch_gradient calls
    phase_statuses: tuple[str, ...]  # one status per phase, in phase order
    phase_loss_evals: tuple[int, ...]  # loss values per phase, in phase order
    phase_loss_calls: tuple[int, ...]  # batch_loss calls per phase, in phase order
    # the rule that ended each phase, in phase order: "grad_norm" or "loss_window"
    # (both "converged"), "max_iters" or "stalled"
    phase_stop_reasons: tuple[str, ...]
    phase_boundary: int | None = None  # trace index where the coherent phase starts
    _plan: _Batch | None = field(default=None, repr=False)
    _wf: LfmWaveform | None = field(default=None, repr=False)

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


def _warm_search(f, f0: float, slope: float, s: float, probed: dict) -> tuple[float, float] | None:
    """Step to the minimum of a quadratic model near a good seed s, and certify it.

    probed holds {s: f(s)}, with f(s) < f0, and gains every step evaluated
    here with its loss.  The first model is the quadratic through f(0) = f0,
    f'(0) = slope and f(s); its vertex u, clamped to [s/2, 2s], is evaluated
    with its stencil (u - h, u, u + h), h = 1e-4 * u / 2, in one call
    f(steps).  If u is no higher than either neighbour, the stencil is a
    bracket no wider than 1e-4 * u around its lowest point, the certificate
    Brent's method ends on, and (u, f(u)) is returned if f(u) < f0.
    Otherwise u moves to the vertex of the stencil's parabola or, when that
    parabola does not open upward (its differences are then rounding), one
    stencil width towards the lower neighbour; it is clamped again, for at
    most _WARM_ROUNDS stencils.  Returns None when no stencil certifies or
    a stencil would repeat a probe.
    """
    fs = probed[s]
    lo, hi = 0.5 * s, 2.0 * s
    q = fs - f0 - slope * s  # s^2 times the model's curvature
    u = s * (-slope * s) / (2.0 * q) if q > 0.0 else hi
    for _ in range(_WARM_ROUNDS):
        u = max(u, lo) if u < hi else hi  # a nan vertex goes to hi
        h = 0.5 * _SECTION_TOL * u
        stencil = (u - h, u, u + h)
        if any(t in probed for t in stencil):
            return None
        fl, fu, fr = (_finite(v) for v in f(np.array(stencil)))
        probed.update(zip(stencil, (fl, fu, fr)))
        if fu <= fl and fu <= fr:
            return (u, fu) if fu < f0 else None
        curvature = fl - 2.0 * fu + fr
        if curvature > 0.0:
            u += h * (fl - fr) / (2.0 * curvature)
        else:
            u += -2.0 * h if fl < fr else 2.0 * h
    return None


def _recalling(f, known: dict):
    """f, answering the steps in known from it instead of evaluating them again."""

    def recalled(step: float) -> float:
        return known[step] if step in known else f(step)

    return recalled


def line_search(f, f0: float, initial_step: float = 1.0, slope: float | None = None) -> tuple[float, float, bool]:
    """Exact 1-D minimization of a loss f(step) along a ray, given f0 = f(0).

    Brackets a minimum by geometric growth from the initial step, shrinking
    first if the initial step does not decrease f (the last step rejected
    then closes the bracket, so no step is evaluated twice); then Brent's method
    narrows the bracket until it is no wider than 1e-4 * step.  If the growth
    budget runs out with f still falling, the last (lowest) step is returned.

    A search given slope = f'(0) < 0 is warm: its initial step is taken to
    lie near the minimum, and f must also take a 1-D array of steps and
    return their losses.  After the first probe it steps to the minimum of
    a quadratic model and certifies it with a three-point stencil evaluated
    in one call (see _warm_search).  When the first probe does not decrease
    f, the search goes on exactly as the one above; when no stencil
    certifies, it goes on as that search from the first probe, recalling
    rather than re-evaluating any step a stencil probed.

    f is never evaluated at 0 or at a negative step.  Returns (step,
    f(step), stalled); stalled means no decrease was found, the step is 0
    and the loss is f0.
    """
    f0 = _finite(f0)
    step = initial_step if np.isfinite(initial_step) and initial_step > 0.0 else 1.0
    fs = _finite(f(step))
    if slope is not None and fs < f0 and slope < 0.0:
        probed = {step: fs}
        found = _warm_search(f, f0, slope, step, probed)
        if found is not None:
            return found + (False,)
        f = _recalling(f, probed)
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
    if f_hi < f_mid:  # still falling: no bracket for Brent, and hi is the lowest probe
        return hi, f_hi, False
    return _brent(f, lo, mid, hi, f_mid, _SECTION_TOL) + (False,)


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
    zig-zags, so its step lengths alternate.  Those searches are warm: they
    get the slope -|grad|^2 at step 0 and evaluate each stencil of three
    steps as one stacked batch_loss call (row by row above _STACK_LAGS lags
    a row, where that is faster; the losses are the same bits either way).
    The noncoherent loss keeps the far seed and the plain search, whose
    golden-section probes can reach a deeper basin along the ray.
    Stops on a relative gradient-norm drop ("grad_norm"), on a flat loss
    window ("loss_window"), both status "converged", on a search that finds
    no decrease ("stalled"), or at max_iters; phase_stop_reasons names the
    rule.  The observations are stacked once into the fit's evaluation plan,
    which every batch_loss and batch_gradient call reads.  loss_calls counts
    the batch_loss calls, loss_evals the loss values they return.
    """
    obs = _as_batch(data)  # every loss and gradient call of the fit reads this plan
    w = w or WeightMatrix.identity()
    theta = model0.pack()
    loss_evals = loss_calls = grad_evals = 0
    stacked = len(model0.scatterers) * obs.z.size <= _STACK_LAGS

    def loss_at(th: np.ndarray) -> float | np.ndarray:
        """The loss at one slot vector, or the (B,) losses of a (B, P) stack:
        in one call up to _STACK_LAGS lags a row, else row by row."""
        nonlocal loss_evals, loss_calls
        if th.ndim == 2 and not stacked:
            return np.array([loss_at(row) for row in th])
        loss_calls += 1
        if th.ndim == 1:
            loss_evals += 1
            return batch_loss(obs, model0.unpack(th), wf, w, kind)
        loss_evals += len(th)
        return batch_loss(obs, model0, wf, w, kind, thetas=th)

    def grad_at(th: np.ndarray) -> np.ndarray:
        nonlocal grad_evals
        grad_evals += 1
        return batch_gradient(obs, model0.unpack(th), wf, w, kind)

    def along(s) -> float | np.ndarray:
        """The loss at theta - s * grad, or at each step of a 1-D array s in one call."""
        return loss_at(theta - (np.multiply.outer(s, grad) if isinstance(s, np.ndarray) else s * grad))

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
            eta, stepped_loss, stalled = line_search(along, current, steps[-2], -gnorm**2)
        else:
            eta, stepped_loss, stalled = line_search(along, current, 0.1 * current / gnorm**2)
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
        loss_calls=loss_calls,
        grad_evals=grad_evals,
        phase_statuses=(status,),
        phase_loss_evals=(loss_evals,),
        phase_loss_calls=(loss_calls,),
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
    plan = _as_batch(data)  # one evaluation plan serves both phases
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
        loss_calls=rough.loss_calls + fine.loss_calls,
        grad_evals=rough.grad_evals + fine.grad_evals,
        phase_statuses=rough.phase_statuses + fine.phase_statuses,
        phase_loss_evals=rough.phase_loss_evals + fine.phase_loss_evals,
        phase_loss_calls=rough.phase_loss_calls + fine.phase_loss_calls,
        phase_stop_reasons=rough.phase_stop_reasons + fine.phase_stop_reasons,
        phase_boundary=len(rough.loss_trace),
        _plan=plan,
        _wf=wf,
    )


def fisher_info(jac, sigma2: float) -> np.ndarray:
    """(P, P) J = (2 / sigma2) Re{G^H G} of an (m, P) Jacobian G, for white noise R = sigma2 * I."""
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"noise power must be finite and > 0, got {sigma2}")
    g = np.asarray(jac)
    j = (2.0 / sigma2) * (np.conj(g).T @ g).real
    return (j + j.T) / 2.0


@dataclass(frozen=True, eq=False)
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
