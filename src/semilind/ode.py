"""The package's one adaptive ODE solver: the explicit Runge-Kutta method of
order 8(5,3) of Dormand and Prince with dense output of order 7 (DOP853).

`solve_ivp` runs the scheme of Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I* (2nd ed.), Sec. II.5 (the method and its error
estimate) and II.6 (dense output), as their Fortran code ``dop853`` does and
as ``scipy.integrate.solve_ivp(method="DOP853")`` runs it: the same tableau,
initial step, combined 5th/3rd-order error norm and step-size control, and
every stage sum in the same order, so that the two give the same steps and
the same numbers.  The interpolant is built, with its three extra stages,
only on a step that holds an output time or an event, and output values are
read from it.  One terminal, downward-crossing event may be located on the
interpolant by bisection to 4 eps; scipy uses Brent's method, so an event
time can differ from scipy's in its last digits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["OdeResult", "solve_ivp"]

_EPS = np.finfo(float).eps

# step-size control: the error estimate is of order 7
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10, -1 / 8

_STAGES = 12  # stages of a step; stage 12 is f at the step's end, the next step's first


def _matrix(rows, n_cols: int) -> np.ndarray:
    out = np.zeros((len(rows), n_cols))
    for i, row in enumerate(rows):
        for j, value in row.items():
            out[i, j] = value
    return out


# Nodes and coupling coefficients of the 12 stages, the end-point stage 12
# (its row holds the weights b of the 8th-order solution) and the three
# extra stages 13-15 of the dense output.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
    0.1, 0.2, 0.777777777777777777777777777778,
])
_A = _matrix([
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
], 16)
_B = _A[_STAGES, :_STAGES]
# Error weights over stages 0-12: E3 = b - bhh against the 3rd-order
# embedded solution, E5 against the 5th-order one.
_E3 = np.zeros(_STAGES + 1)
_E3[:-1] = _B
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
_E5 = _matrix([{
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1,
}], _STAGES + 1)[0]
# Weights over the 16 stages of the interpolant's coefficients 3-6 (its
# first three come from y, y_new, f and f_new).
_D = _matrix([
    {0: -0.84289382761090128651353491142e1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e1, 7: 0.23846676565120698287728149680e1,
     8: 0.21170345824450282767155149946e1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e2,
     14: -0.91946323924783554000451984436e1, 15: -0.44360363875948939664310572000e1},
    {0: 0.10427508642579134603413151009e2, 5: 0.24228349177525818288430175319e3,
     6: 0.16520045171727028198505394887e3, 7: -0.37454675472269020279518312152e3,
     8: -0.22113666853125306036270938578e2, 9: 0.77334326684722638389603898808e1,
     10: -0.30674084731089398182061213626e2, 11: -0.93321305264302278729567221706e1,
     12: 0.15697238121770843886131091075e2, 13: -0.31139403219565177677282850411e2,
     14: -0.93529243588444783865713862664e1, 15: 0.35816841486394083752465898540e2},
    {0: 0.19985053242002433820987653617e2, 5: -0.38703730874935176555105901742e3,
     6: -0.18917813819516756882830838328e3, 7: 0.52780815920542364900561016686e3,
     8: -0.11573902539959630126141871134e2, 9: 0.68812326946963000169666922661e1,
     10: -0.10006050966910838403183860980e1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e1, 13: -0.60196695231264120758267380846e2,
     14: 0.84320405506677161018159903784e2, 15: 0.11992291136182789328035130030e2},
    {0: -0.25693933462703749003312586129e2, 5: -0.15418974869023643374053993627e3,
     6: -0.23152937917604549567536039109e3, 7: 0.35763911791061412378285349910e3,
     8: 0.93405324183624310003907691704e2, 9: -0.37458323136451633156875139351e2,
     10: 0.10409964950896230045147246184e3, 11: 0.29840293426660503123344363579e2,
     12: -0.43533456590011143754432175058e2, 13: 0.96324553959188282948394950600e2,
     14: -0.39177261675615439165231486172e2, 15: -0.14972683625798562581422125276e3},
], 16)

_MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
    -1: "Required step size is less than spacing between numbers.",
}


@dataclass
class OdeResult:
    """What `solve_ivp` returns.  ``y[:, k]`` is the state at ``t[k]``, the
    output times reached; ``y.T`` is C-contiguous, one row per time.  A step
    is accepted or rejected; each of them costs 12 evaluations of the
    right-hand side, and each step whose interpolant is built
    (``dense_steps``) 3 more, after the 2 of the initial step selection."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    steps: int
    rejected: int
    dense_steps: int
    status: int  # 0 end reached, 1 event, -1 step size underflow
    message: str
    t_event: float | None = None
    y_event: np.ndarray | None = None

    @property
    def success(self) -> bool:
        return self.status >= 0


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_end, rtol, atol) -> float:
    """Hairer's starting step for an error estimate of order 7 (Sec. II.4)."""
    interval = t_end - t0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def _error_norm(K: np.ndarray, h, scale: np.ndarray) -> float:
    """RMS norm of the 5th-order error estimate, damped where the 3rd-order
    estimate is larger (Sec. II.10, ``dop853``)."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


class _Interpolant:
    """Dense output of order 7 over one accepted step from (t_old, y_old)
    to (t, y): coefficients F of the nested form in x = (t - t_old) / h."""

    def __init__(self, fun, K, t_old, y_old, f_old, t, y, f, h):
        for s in range(_STAGES + 1, 16):
            dy = np.dot(K[:s].T, _A[s, :s]) * h
            K[s] = fun(t_old + _C[s] * h, y_old + dy)
        F = np.empty((7, y.size))
        delta_y = y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f + f_old)
        F[3:] = h * np.dot(_D, K)
        self.t_old, self.h, self.y_old, self.F = t_old, t - t_old, y_old, F

    def __call__(self, t):
        """The state at a time (shape (n,)) or at a 1-D array of times, one
        row each ((k, n))."""
        x = (np.asarray(t) - self.t_old) / self.h
        x = x[..., None]
        y = np.zeros(x.shape[:-1] + self.y_old.shape)
        for i, f in enumerate(self.F[::-1]):
            y += f
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self.y_old
        return y


def _crossing(f, a: float, b: float) -> float:
    """Where f, >= 0 at a and <= 0 at b, reaches zero: the end with f <= 0
    of a bracket halved down to 4 eps relative (absolute below 1)."""
    while b - a > 4 * _EPS * max(1.0, abs(b)):
        mid = a + (b - a) / 2
        if f(mid) <= 0:
            b = mid
        else:
            a = mid
    return b


def solve_ivp(fun, t_span, y0, t_eval, rtol: float, atol: float, event=None) -> OdeResult:
    """Integrate y' = fun(t, y) for real y from ``t_span[0]`` to
    ``t_span[1] > t_span[0]`` by adaptive DOP853, returning the states at
    ``t_eval`` (increasing strictly, inside ``t_span``) read from the
    interpolant.  The error of each step is held below ``atol + rtol |y|``
    in the RMS norm; ``rtol`` is raised to 100 eps if it is smaller, with a
    warning.

    ``event(t, y)``, if given, is a scalar function whose first crossing
    from >= 0 to <= 0 at the end of a step ends the integration: its time,
    located on the step's interpolant, and its state are the result's
    ``t_event`` and ``y_event``, and the output times up to it are returned,
    with ``status`` 1.  A step size below ten units in the last place of t
    stops the integration with ``status`` -1.
    """
    t0, t_end = (float(t) for t in t_span)
    t_eval = np.asarray(t_eval, dtype=float)
    y = np.asarray(y0, dtype=float)
    if not t0 < t_end:
        raise ValueError(f"t_span must increase, got ({t0!r}, {t_end!r})")
    if (t_eval.ndim != 1 or not t_eval.size or t_eval[0] < t0 or t_eval[-1] > t_end
            or np.any(np.diff(t_eval) <= 0)):
        raise ValueError("t_eval must increase strictly inside t_span")
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise ValueError("y0 must be a finite 1-D array")
    if atol < 0:
        raise ValueError(f"atol must not be negative, got {atol!r}")
    if rtol < 100 * _EPS:
        warnings.warn(f"rtol {rtol!r} is below 100 eps; using {100 * _EPS!r}", stacklevel=2)
        rtol = 100 * _EPS
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    # K holds the stages of a step (rows 0-11), f at its end (row 12) and
    # the interpolant's extra stages (rows 13-15); the views are fixed.
    K = np.empty((16, y.size))
    stage_rows = [(s, K[:s].T, _A[s, :s], _C[s]) for s in range(1, _STAGES)]
    K_b, K_err = K[:_STAGES].T, K[:_STAGES + 1]
    f_cur = f(t0, y)
    h_abs = _initial_step(f, t0, y, f_cur, t_end, rtol, atol)
    g = event(t0, y) if event is not None else None
    t, status, i_out = t0, None, 0
    steps = rejected = dense_steps = 0
    t_event = y_event = None
    ts, ys = [], []
    while status is None:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f_cur
            for s, K_s, a, c in stage_rows:
                dy = np.dot(K_s, a) * h
                K[s] = f(t + c * h, y + dy)
            y_new = y + h * np.dot(K_b, _B)
            f_new = K[_STAGES] = f(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K_err, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
            step_rejected = True
            rejected += 1
        if status == -1:
            break
        steps += 1
        if t_new >= t_end:
            status = 0
        interp, t_reached = None, t_new
        if event is not None:
            g_new = event(t_new, y_new)
            if g >= 0 and g_new <= 0:
                interp = _Interpolant(f, K, t, y, f_cur, t_new, y_new, f_new, h)
                dense_steps += 1
                t_event = t_reached = _crossing(lambda s: event(s, interp(s)), t, t_new)
                y_event = interp(t_event)
                status = 1
            g = g_new
        i_new = int(np.searchsorted(t_eval, t_reached, side="right"))
        if i_new > i_out:
            if interp is None:
                interp = _Interpolant(f, K, t, y, f_cur, t_new, y_new, f_new, h)
                dense_steps += 1
            ts.append(t_eval[i_out:i_new])
            ys.append(interp(t_eval[i_out:i_new]))
            i_out = i_new
        t, y, f_cur = t_new, y_new, f_new
    return OdeResult(
        t=np.concatenate(ts) if ts else np.empty(0),
        y=(np.concatenate(ys) if ys else np.empty((0, y.size))).T,
        nfev=nfev, steps=steps, rejected=rejected, dense_steps=dense_steps, status=status,
        message=_MESSAGES[status], t_event=t_event, y_event=y_event,
    )
