"""Arc decomposition of the counting integral and its main-term models.

The count J_c(N, H) equals the integral over [-1/2, 1/2] of
F(alpha) * e(-alpha*N), where F is the product of the two prime-window sums
and the floor-power window sum.  The interval splits at kappa = (ln N)^2/(2cH)
into a major arc [-kappa, kappa] and two minor arcs.  F has non-negative
integer coefficients (and the model integrand is real and even), so the
integrand at -alpha is the complex conjugate of the integrand at alpha: only
[0, 1/2] is integrated, and the negative half is its mirror image.  In exact
mode F is the product of the boundary-inclusive window sums, so the three arc
integrals must add up to the integer count; exact_convolution_count provides
that integer without any quadrature as the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .counting import DEFAULT_MEM_ENTRIES, Windows, _check_budget, build_windows, fast_count
from .instance import DerivedParams, ProblemInstance, derive_params, log_centres
from .quadrature import _BAND_TOL, adaptive_complex, band_layout


class ExactIntegrand:
    """F(alpha) * e(-alpha*N) with F the product of the three window sums.

    The windows are centred, so each is stored as integer offsets k = x - b
    from a base b near its centre: b1 = round(mu1*N), b2 = round(mu2*N) and
    b3 = N - b1 - b2.  The bases sum to N, so e(-alpha*N) cancels exactly and
    the integrand is the product of the three sums of e(alpha*k), with every
    |k| <= H + 1 (|b3 - mu3*N| <= 1).  A batch of alphas is evaluated in row
    chunks of at most _CHUNK_ELEMENTS phases (one row per alpha, one column
    per window element), in three work buffers allocated once per integrand,
    so memory stays flat however many nodes arrive.

    When the two prime windows coincide, that is, they have the same integer
    interval (inst.window(1) == inst.window(2)) and the same base
    (round(mu1*N) == round(mu2*N)), as they always do when mu1 = mu2, P2's
    offsets are P1's, and its cosine and sine sums would be the same doubles.
    So the offsets hold P1 and V only, and P1's sums are taken as the second
    factor too: one tangent per node for each element of P1 and V, not of
    P1, P2 and V.  The product multiplies the same doubles in the same order,
    so every value is bit for bit the one the three sums give.

    No exact phase reduction is needed.  For |alpha| <= 1/2 the double product
    alpha*k is off by at most 2^-54 * (H + 1) turns.  Rounding the node alpha
    to a double already moves the true integrand's phases, which reach about
    3H, by the same order, so reducing the rounded node exactly buys nothing.

    band = (top, sup) gives |f(z)| <= sup * e^(2 pi top |Im z|) for the band
    rule.  f is the sum of |P1| |P2| |V| terms e(z (p1 + p2 + v - N)), each
    of modulus at most e^(2 pi top |Im z|) with top the largest
    |p1 + p2 + v - N| (1.0 when a window is empty and f = 0), so
    sup = |P1| |P2| |V|, which is also f(0).
    """

    # 128 KiB per work buffer: a chunk's arrays stay in L2 and peak RSS stays flat
    _CHUNK_ELEMENTS = 1 << 14

    def __init__(self, windows: Windows):
        self.windows = windows
        inst = windows.inst
        b1, b2 = round(inst.mu_N(1)), round(inst.mu_N(2))
        bases = (b1, b2, inst.N - b1 - b2)
        sets = (windows.p1, windows.p2, windows.values)
        # factor i of the product is the sum over the window at _factors[i]
        self._factors = (0, 1, 2)
        if b1 == b2 and inst.window(1) == inst.window(2):
            bases, sets, self._factors = bases[::2], sets[::2], (0, 0, 1)
        self._offsets = np.concatenate(
            [np.asarray(w, dtype=np.int64) - b for w, b in zip(sets, bases)]
        ).astype(np.float64)
        self._bounds = np.cumsum([0] + [len(w) for w in sets])
        # Three work buffers, allocated once and reused by every chunk.  With
        # fresh 128 KiB temporaries per chunk, glibc trims the heap top after
        # each chunk and faults the pages back in on the next one, unless an
        # earlier allocation pattern (importing mpmath, say) has raised its
        # dynamic trim threshold: on a 2-core Intel Xeon host, arcs --mode
        # exact at N = 4500, c = 5/3, H = 362 took 27-29 ms that way, against
        # 15-18 ms with mpmath imported, with MALLOC_TRIM_THRESHOLD_=4194304,
        # or with these buffers.
        self._step = max(1, self._CHUNK_ELEMENTS // max(self._offsets.size, 1))
        self._work = np.empty((3, self._step, self._offsets.size))
        top = 1.0
        if not windows.empty:
            smin = int(windows.p1[0] + windows.p2[0] + windows.values.min())
            smax = int(windows.p1[-1] + windows.p2[-1] + windows.values.max())
            top = float(max(abs(smin - inst.N), abs(smax - inst.N), 1))
        self.band = (top, float(len(windows.p1) * len(windows.p2) * len(windows.values)))

    def _chunk(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of the integrand at a chunk of alphas."""
        x, t2, w = self._work[:, : a.size]
        np.multiply(a[:, None], self._offsets, out=x)
        x -= np.rint(x, out=t2)
        # e(x) = (1 - t^2 + 2it) / (1 + t^2) with t = tan(pi*x), |x| <= 1/2:
        # one tangent per phase instead of a cosine and a sine.  Computed in
        # the three work buffers, so a chunk allocates no phase-sized array.
        t = np.tan(np.multiply(x, np.pi, out=x), out=x)
        t2 = np.multiply(t, t, out=t2)
        w = np.reciprocal(np.add(t2, 1.0, out=w), out=w)
        cos = np.multiply(np.subtract(1.0, t2, out=t2), w, out=t2)
        sin = np.multiply(np.multiply(t, 2.0, out=t), w, out=t)
        # The product in real arithmetic: numpy's complex multiply rounds
        # differently in its vector and scalar loops, which would make a
        # node's value depend on where it sits in the batch.
        sums = [
            (cos[:, lo:hi].sum(axis=1), sin[:, lo:hi].sum(axis=1))
            for lo, hi in zip(self._bounds[:-1], self._bounds[1:])
        ]
        re, im = sums[self._factors[0]]
        for i in self._factors[1:]:
            c, s = sums[i]
            re, im = re * c - im * s, re * s + im * c
        return re, im

    def __call__(self, alphas: np.ndarray) -> np.ndarray:
        a = np.asarray(alphas, dtype=np.float64)
        out = np.zeros(a.shape, dtype=complex)
        if self.windows.empty:
            return out
        step = self._step
        for start in range(0, a.size, step):
            part = out[start : start + step]
            part.real, part.imag = self._chunk(a[start : start + step])
        return out


class ModelIntegrand:
    """Product of the three closed-form approximants, times e(-alpha*N).

    The approximants are centred at mu_k*N and the centres sum to N, so their
    phases cancel e(-alpha*N) exactly: what is left is the real, even envelope
    amp * sinc(2 pi alpha H)^3, amp = (2H)^2 * H3 / (ln(mu1 N) ln(mu2 N)).

    band = (top, sup) gives |f(z)| <= sup * e^(2 pi top |Im z|) for the band
    rule.  sinc w is the integral of cos(t w) over [0, 1], so
    |sinc w| <= e^|Im w|: sup = amp, the value at 0, and top = 3H (3 at H = 0).
    """

    def __init__(self, dp: DerivedParams):
        self.H = dp.H
        log1, log2 = log_centres(dp.inst)
        self.amp = (2.0 * dp.H) ** 2 * dp.h3 / (log1 * log2)
        self.band = (3.0 * max(dp.H, 1), self.amp)

    def integral(self, a: float, b: float) -> float:
        """The integral over [a, b], 0 < a <= b, in closed form (H > 0).

        With u = 2 pi H alpha it is amp/(2 pi H) times the integral of
        sin(u)^3/u^3 over [2 pi H a, 2 pi H b], taken as a difference of two
        tails, which stays accurate to about 1e-16 / (2 pi H a) of the peak
        however far out the interval lies.
        """
        z = 2.0 * math.pi * self.H
        return self.amp / z * (sin3_tail(z * a) - sin3_tail(z * b))

    def __call__(self, alphas: np.ndarray) -> np.ndarray:
        z = 2.0 * np.pi * np.asarray(alphas, dtype=np.float64) * self.H
        small = np.abs(z) < 1e-4
        zsafe = np.where(small, 1.0, z)
        s = np.where(small, 1.0 - z * z / 6.0, np.sin(zsafe) / zsafe)
        return self.amp * s ** 3


# One chunk of targets gathers at most this many bytes of window-2 words (or
# one target's, when that is more).  On a 2-core Intel Xeon host, 1 MiB took
# 0.029 s at N = 1e7, H = ceil(N^0.8), against 0.034-0.041 s at 64 and
# 256 KiB and 0.035 s at 4 MiB.
_GATHER_BYTES = 1 << 20


def exact_convolution_count(
    inst: ProblemInstance | Windows, *, mem_entries: int = DEFAULT_MEM_ENTRIES
) -> int:
    """The count as the N-th coefficient of the indicator-product series.

    For every floor-power value v, the pairs of window primes with
    p1 + p2 = t = N - v are counted by AND and popcount of two bitsets: no
    quadrature, and no floating point.  Takes an instance, whose windows it
    builds, or windows already built by counting.build_windows.

    Bit i of A flags the prime p1[0] + i (n1 = p1[-1] - p1[0] + 1 bits, in
    W = ceil(n1/64) 64-bit words).  Bit r of rb flags the prime p2[-1] - r
    of window 2, in reverse (n2 = p2[-1] - p2[0] + 1 bits).  The partner
    t - p1[0] - i of bit i then sits at bit off + i of rb, with
    off = p2[-1] + p1[0] - t, so r(v) is the popcount of A AND (rb shifted
    down by off), which is 0 unless -n1 < off < n2.  When p1[0] > 2 and
    p2[0] > 2 both primes are odd, so an odd t has r = 0 and is skipped.
    rb is packed once per shift s < 8, with ceil(n1/8) zero bytes before it
    and 8 W after, so for any such off the W words from byte off >> 3 of the
    packing for s = off mod 8 are rb shifted by off, read as little-endian
    words.  The targets, in order of off, go in chunks of at most
    _GATHER_BYTES bytes of words: a chunk gathers the words of each of its
    targets that overlap window 2 into one (targets x words) array, ANDs it
    with A, and takes one np.bitwise_count and one sum.

    With span = ceil(n1/8) + ceil(n2/8) + 8 W bytes per packing and
    rows = min(|V|, max(1, _GATHER_BYTES // 8 W)) targets per chunk, its
    arrays take 8 W + 8 span + ceil(n2/8) + 2 + 9 rows W bytes: A, the
    packings, rb's first packing while they are built, and a chunk's words
    and counts.  Raises MemoryBudgetExceeded, before any of them is
    allocated, when that exceeds mem_entries 8-byte entries.
    """
    w = inst if isinstance(inst, Windows) else build_windows(inst)
    if w.empty:
        return 0
    p1, p2 = w.p1, w.p2
    lo1, hi1 = int(p1[0]), int(p1[-1])
    lo2, hi2 = int(p2[0]), int(p2[-1])
    n1, n2 = hi1 - lo1 + 1, hi2 - lo2 + 1
    words, lead, nb = (n1 + 63) >> 6, (n1 + 7) >> 3, (n2 + 7) >> 3
    span = lead + nb + 8 * words
    rows = min(len(w.values), max(1, _GATHER_BYTES // (8 * words)))
    need = 8 * words + 8 * span + nb + 2 + 9 * rows * words
    _check_budget(need, mem_entries, f"convolution of spans {n1} and {n2}")
    t = w.inst.N - w.values
    off = (hi2 + lo1) - t
    keep = (off > -n1) & (off < n2)
    if lo1 > 2 and lo2 > 2:
        keep &= (t & 1) == 0
    off = off[keep]
    if not off.size:
        return 0
    a = np.zeros(64 * words, dtype=bool)
    a[p1 - lo1] = True
    A = np.packbits(a, bitorder="little").view("<u8")
    # rb after 8 zero bits and before 8 more: byte j + 1 holds its bits 8j...
    b = np.zeros(n2 + 16, dtype=bool)
    b[8 + hi2 - p2] = True
    rb = np.packbits(b, bitorder="little")
    del a, b
    # Byte j of the packing for s holds rb's bits 8j + s ... 8j + s + 7, the
    # low byte of (bytes j, j + 1 of rb as a 16-bit word) >> s; j runs from -1,
    # which holds rb's first s bits, to nb - 1.
    packings = np.zeros(8 * span, dtype=np.uint8)
    pairs = np.ndarray((nb + 1,), dtype="<u2", buffer=rb, strides=(1,))
    shifts = np.arange(8, dtype=np.uint16)[:, None]
    np.right_shift(pairs, shifts, out=packings.reshape(8, span)[:, lead - 1 : lead + nb],
                   casting="unsafe")
    starts = (off & 7) * span + lead + (off >> 3)
    total = 0
    for c in range(0, off.size, rows):
        chunk_off = off[c : c + rows]
        # the words of A that overlap window 2 for some target of the chunk
        k0 = max(0, -int(chunk_off.max())) >> 6
        k1 = min(words, (n2 - int(chunk_off.min()) + 63) >> 6)
        width = 8 * (k1 - k0)
        view = np.ndarray((8 * span - width + 1, width), dtype=np.uint8,
                          buffer=packings, strides=(1, 1))
        chunk = view[starts[c : c + rows] + 8 * k0].view("<u8")
        chunk &= A[k0:k1]
        total += int(np.bitwise_count(chunk).sum())
    return total


@dataclass(frozen=True, slots=True)
class ArcReport:
    """Numeric arc integrals alongside the exact count and the main terms.

    Only the independent values are stored; the others are properties.
    """

    mode: str
    tol: float
    kappa: float
    I_major: complex
    I_minor_plus: complex
    exact_total: int
    model_major: float
    main_term: float
    # the proven bound on the quadrature rules' error, rounding aside, over
    # all of [-1/2, 1/2] but the closed-form model minor arcs
    achieved_error: float
    # the quadrature's integrand evaluations, one rule of the order
    # quadrature.band_layout picks per panel of each integrated interval
    n_evals: int

    @property
    def arc_split(self) -> bool:
        """False when kappa >= 1/2: a single full-interval integral."""
        return self.kappa < 0.5

    @property
    def I_minor_minus(self) -> complex:
        return self.I_minor_plus.conjugate()

    @property
    def arc_sum(self) -> complex:
        return self.I_major + self.I_minor_plus + self.I_minor_minus

    @property
    def additivity_error(self) -> float:
        return abs(self.arc_sum.real - self.exact_total)

    @property
    def ratio_exact_to_main(self) -> Optional[float]:
        return (self.exact_total / self.main_term) if self.main_term > 0 else None

    @property
    def ratio_major_to_model(self) -> Optional[float]:
        if self.model_major > 0:
            return self.I_major.real / self.model_major
        return None

    def to_dict(self) -> dict:
        """The report's values, each complex value as [re, im]."""
        doc = {name: getattr(self, name) for name in _ARC_REPORT_KEYS}
        for name in ("I_major", "I_minor_plus", "I_minor_minus"):
            doc[name] = [doc[name].real, doc[name].imag]
        return doc


_ARC_REPORT_KEYS = (
    "mode", "tol", "kappa", "arc_split", "I_major", "I_minor_plus",
    "I_minor_minus", "exact_total", "model_major", "main_term",
    "additivity_error", "ratio_exact_to_main", "ratio_major_to_model",
    "achieved_error", "n_evals",
)


def model_major_value(dp: DerivedParams) -> float:
    """Closed-form major-arc value 3*H*H3 / (2 ln(mu1 N) ln(mu2 N)).

    Raises ValueError unless mu_k N > 1 for k = 1, 2.
    """
    log1, log2 = log_centres(dp.inst)
    return 3.0 * dp.H * dp.h3 / (2.0 * log1 * log2)


def main_term_value(inst: ProblemInstance) -> float:
    """Asymptotic main term 3*H^2 / (c * (mu3 N)^(1 - 1/c) * (ln N)^2).

    Raises ValueError unless mu_k N > 1 for k = 1, 2, which gives ln N > 0.
    """
    log_centres(inst)
    L = math.log(inst.N)
    cf = float(inst.c)
    mu3N = float(inst.mu_N(3))
    return 3.0 * inst.H ** 2 / (cf * mu3N ** (1.0 - 1.0 / cf) * L * L)


def integrate_arcs(
    inst: ProblemInstance | DerivedParams,
    mode: str = "exact",
    tol: float = 1e-6,
    *,
    threads: int = 1,  # read by nothing; perfbench's crosscheck passes threads=1
    mem_entries: int = DEFAULT_MEM_ENTRIES,
) -> ArcReport:
    """The integrals of F(alpha)e(-alpha N) over the major and two minor arcs.

    With k = min(kappa, 1/2), only [0, k] and [k, 1/2] are integrated; the
    integrand's conjugate symmetry gives I_major = 2 Re of the first and
    I_minor_minus = conj(I_minor_plus).  When kappa >= 1/2 the second
    interval is empty: I_major is the full integral and both minor integrals
    are zero.  Each of the two intervals gets its own band rule from
    quadrature.band_layout: of the order-64 to order-256 rows of
    quadrature._BAND_RULES, each on panels of the most periods of the top
    frequency its proven bound allows (24 at order 64, 134 at order 256),
    the row that needs the fewest evaluations there, so a short major arc
    keeps a low order and a long minor arc takes a high one.
    adaptive_complex takes those panels as final, by its band rule with the
    band that each integrand class states and proves: a fixed rule, refused
    up front unless each arc's rule-error bound fits
    tol * max(sup, 1) * (its width).
    In model mode the minor arc is the closed form ModelIntegrand.integral,
    so achieved_error and n_evals count the major arc only.  achieved_error
    counts the bound on [0, 1/2] twice, once for its mirror image; n_evals
    counts the quadrature's integrand evaluations, one rule of the chosen
    order per panel (1.91 to 2.67 per period of the top frequency), which
    are made once each.  Exact mode builds the windows once
    (counting.build_windows) and hands the same value to the integrand and
    to the convolution count, whose agreement with Re(sum of the three
    integrals) is the additivity cross-check, and the one check that covers
    the integrand's rounding.  Model mode takes exact_total from
    fast_count.  In exact mode with mu1 = mu2 (more exactly, with equal
    windows and bases for P1 and P2) the integrand sums the shared prime
    window once per node and uses it for both factors, which changes no bit
    of any value (see ExactIntegrand).  Takes an instance, whose parameters
    it derives, or its DerivedParams already derived by
    instance.derive_params.
    Raises ValueError unless mu_k N > 1 for k = 1, 2, and unless
    tol >= 2^-53: every _BAND_RULES row keeps its rule bound below that
    fraction of sup * width, so any larger tol gives the same panels, values
    and bounds, and a smaller one would ask for less than the rounding of
    the integrand's values.
    """
    if not tol >= _BAND_TOL:
        raise ValueError(
            f"tol must be at least 2^-53 ({_BAND_TOL:.3g}), the double rounding "
            f"the band rules are built against, got {tol:g}"
        )
    dp = inst if isinstance(inst, DerivedParams) else derive_params(inst)
    inst = dp.inst
    model_major = model_major_value(dp)  # checks mu_k N > 1 before any work
    kappa = dp.kappa

    if mode == "exact":
        windows = build_windows(inst)
        integrand = ExactIntegrand(windows)
        exact_total = exact_convolution_count(windows, mem_entries=mem_entries)
    elif mode == "model":
        integrand = ModelIntegrand(dp)
        exact_total = fast_count(inst, mem_entries=mem_entries).total
    else:
        raise ValueError(f"unknown mode {mode!r}")

    fmax, peak = integrand.band
    scale = max(peak, 1.0)
    k = min(kappa, 0.5)

    def run(a: float, b: float) -> tuple[complex, float, int]:
        order, edges = band_layout(a, b, fmax)
        return adaptive_complex(
            integrand, edges, abs_tol=tol * scale * (b - a), order=order,
            band=integrand.band,
        )

    I_half, e_major, n_major = run(0.0, k)
    if mode == "exact":
        I_plus, e_plus, n_plus = run(k, 0.5)
    else:
        I_plus = complex(integrand.integral(k, 0.5)) if k < 0.5 else 0j
        e_plus = n_plus = 0
    return ArcReport(
        mode=mode,
        tol=tol,
        kappa=kappa,
        I_major=complex(2.0 * I_half.real, 0.0),
        I_minor_plus=I_plus,
        exact_total=exact_total,
        model_major=model_major,
        main_term=main_term_value(inst),
        achieved_error=2.0 * (e_major + e_plus),
        n_evals=n_major + n_plus,
    )


def sine_power_integral(n: int) -> float:
    """Closed form of the improper integral of sin(u)^n / u^n over [0, inf)."""
    total = 0
    for j in range((n + 1) // 2):
        if n - 2 * j <= 0:
            break
        total += (-1) ** j * math.comb(n, j) * (n - 2 * j) ** (n - 1)
    return math.pi * total / (2 ** n * math.factorial(n - 1))


# Si is summed as its power series up to here and taken from the continued
# fraction of E1(ix) beyond it.
_SI_SERIES_MAX = 2.0


def sine_integral(x: float) -> tuple[float, float]:
    """Si(x) and Si(x) - pi/2 for x >= 0, each without cancellation.

    Up to x = 2, Si is the power series, the sum over j of
    (-1)^j x^(2j+1) / ((2j+1) (2j+1)!), whose largest term is below 2, so it
    stays within a few ulp.  Beyond it,
    Si(x) - pi/2 is the imaginary part of E1(ix) = e^(-ix) / (ix + 1 - 1/(ix
    + 3 - 4/(ix + 5 - ...))) (Numerical Recipes, section 6.8), and so is
    small where Si(x) - pi/2 is, not a difference of two numbers near pi/2.
    The fraction is evaluated from the bottom up, which holds its rounding
    error to a few ulp, and its depth is doubled until the value settles.
    """
    if x <= _SI_SERIES_MAX:
        x2 = x * x
        power, total, k = x, x, 1  # power = (-1)^j x^k / k!, k = 2j + 1
        while True:
            power *= -x2 / ((k + 1) * (k + 2))
            k += 2
            term = power / k
            total += term
            if abs(term) <= 2.0 ** -56 * total:
                return total, total - 0.5 * math.pi
    z = complex(0.0, x)
    depth, previous = 8, 0j
    while True:
        t = z + (2 * depth + 1)
        for i in range(depth, 0, -1):
            t = z + (2 * i - 1) - i * i / t
        if abs(t - previous) <= 2.0 ** -53 * abs(t):
            break
        depth, previous = 2 * depth, t
    shifted = (complex(math.cos(x), -math.sin(x)) / t).imag
    return 0.5 * math.pi + shifted, shifted


def _sin3(T: float) -> tuple[float, float]:
    """I(T), the integral of sin(u)^3/u^3 du over [0, T], and 3 pi/8 - I(T).

    With h(T) = sin^3 T/(2T^2) + 3 sin^2 T cos T/(2T) the closed forms are
    I(T) = (9 Si(3T) - 3 Si(T))/8 - h(T) and
    3 pi/8 - I(T) = h(T) - (9 (Si(3T) - pi/2) - 3 (Si(T) - pi/2))/8, with
    Si - pi/2 taken directly, so the tail's error stays near 1e-16 / T while
    the tail falls like 1/T^3.  Below T = 1e-3, I(T) is the series
    T - T^3/6 + 13 T^5/600 (0 for T <= 0), whose first omitted term is below
    1e-18 * T, exact where the powers of T in the closed form underflow; the
    tail is then 3 pi/8 - I(T), which cancels nothing.
    """
    if T < 1e-3:
        T2 = T * T
        value = T * (1.0 - T2 / 6.0 + (13.0 / 600.0) * T2 * T2) if T > 0 else 0.0
        return value, 3.0 * math.pi / 8.0 - value
    s, c = math.sin(T), math.cos(T)
    head = s ** 3 / (2.0 * T * T) + 3.0 * s * s * c / (2.0 * T)
    (si3, shifted3), (si1, shifted1) = sine_integral(3.0 * T), sine_integral(T)
    return (9.0 * si3 - 3.0 * si1) / 8.0 - head, head - (9.0 * shifted3 - 3.0 * shifted1) / 8.0


def sin3_integral(T: float) -> float:
    """integral of sin(u)^3/u^3 du over [0, T], in closed form (see _sin3)."""
    return _sin3(T)[0]


def sin3_tail(T: float) -> float:
    """integral of sin(u)^3/u^3 du over [T, inf), for T > 0, in closed form (see _sin3)."""
    return _sin3(T)[1]


@dataclass(frozen=True)
class SingularIntegralJ:
    """J(H) over [-kappa, kappa] and its 3H^2 limit."""

    value: float
    reference: float  # 3 H^2, the kappa -> infinity limit


def singular_integral_J(H: float, kappa: float) -> SingularIntegralJ:
    """J(H) = integral over [-kappa, kappa] of sin^3(2 pi alpha H)/(pi alpha)^3.

    Substituting u = 2 pi alpha H gives (8 H^2 / pi) * integral of
    sin^3(u)/u^3 over [0, 2 pi kappa H]; the integrand tends to 1 (so the
    original integrand tends to 8 H^3) at the origin.
    """
    if H <= 0 or kappa <= 0:
        raise ValueError("singular_integral_J requires H > 0 and kappa > 0")
    T = 2.0 * math.pi * kappa * H
    value = (8.0 * H * H / math.pi) * sin3_integral(T)
    return SingularIntegralJ(value=value, reference=3.0 * H * H)
