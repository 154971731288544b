"""Index arithmetic and product-state assembly for a (d+1)-qudit register.

The register holds one probe qudit (position 0) and d reference qudits
(positions 1..d), each of local dimension d, so the total Hilbert space
has dimension D = d**(d+1).  Flat basis indices are big-endian with the
probe digit most significant:

    flat = sum_j digits[j] * d**(d - j)
"""

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12


def check_dim(d):
    """Validate the single-qudit dimension (= number of reference states)."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise ValueError(f"dimension must be an integer, got {d!r}")
    d = int(d)
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    # d**(d+1) >= 2**(d+1), so d >= 61 fails without taking the power.
    if d >= 61 or d ** (d + 1) >= 2**62:
        raise ValueError(f"total dimension d**(d+1) overflows the index range for d={d}")
    return d


def _check_index(name, value, low, high):
    """Validate an integer index in low..high (bools refused); returns it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} {value} out of range {low}..{high}")
    return int(value)


def total_dim(d):
    """Dimension D = d**(d+1) of the full (d+1)-qudit space."""
    d = check_dim(d)
    return d ** (d + 1)


def encode_index(digits, d):
    """Flat index of the basis vector with the given per-qudit digits.

    `digits` has length d+1; position 0 is the probe qudit and is the most
    significant digit.
    """
    d = check_dim(d)
    if len(digits) != d + 1:
        raise ValueError(f"expected {d + 1} digits, got {len(digits)}")
    flat = 0
    for x in digits:
        if not 0 <= x < d:
            raise ValueError(f"digit {x} out of range for dimension {d}")
        flat = flat * d + int(x)
    return flat


def haar_state(d, rng):
    """Haar-random single-qudit pure state.

    Drawn as an i.i.d. standard complex Gaussian vector, normalized; the
    real parts are drawn before the imaginary parts.  Linear independence
    of repeated draws holds with probability 1 and is not checked.
    """
    d = check_dim(d)
    while True:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        norm = np.linalg.norm(v)
        if norm > 0.0:
            return v / norm


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of the full (d+1)-qudit register.

    Immutable after construction; the amplitude buffer is copied and
    marked read-only so instances are safe to share across threads.
    """

    d: int
    amps: np.ndarray

    def __post_init__(self):
        d = check_dim(self.d)
        amps = np.array(self.amps, dtype=np.complex128, copy=True).reshape(-1)
        D = d ** (d + 1)
        if amps.shape != (D,):
            raise ValueError(f"expected {D} amplitudes for d={d}, got {amps.shape}")
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ValueError("state vector is not normalized")
        amps.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "amps", amps)


def product_state(factors):
    """Tensor product of d+1 single-qudit states, probe factor first.

    Each factor must be a unit-norm amplitude vector of length d, where
    d+1 is the number of factors.
    """
    factors = [np.asarray(f, dtype=np.complex128) for f in factors]
    d = check_dim(len(factors) - 1)
    for j, f in enumerate(factors):
        if f.shape != (d,):
            raise ValueError(f"factor {j} has shape {f.shape}, expected ({d},)")
        if abs(np.linalg.norm(f) - 1.0) > NORM_TOL:
            raise ValueError(f"factor {j} is not normalized")
    amps = factors[0]
    for f in factors[1:]:
        amps = np.kron(amps, f)
    return StateVector(d, amps)


def inner_product(a, b):
    """<a|b> with the first argument conjugated."""
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: d={a.d} vs d={b.d}")
    return complex(np.vdot(a.amps, b.amps))


def state_to_dict(state):
    """JSON-ready form: {"d": int, "amps": (D, 2) float64 array}.

    Row i of `amps` holds (re, im) of flat amplitude i; jsonio.dumps
    renders it as the nested list [[re, im], ...].
    """
    return {
        "d": state.d,
        "amps": np.stack([state.amps.real, state.amps.imag], axis=1),
    }


def state_from_dict(obj):
    """Rebuild a StateVector from its JSON form (validates normalization).

    `amps` may be the (D, 2) array of state_to_dict or the parsed nested
    list; each row is one (re, im) pair, signed zeros included.
    """
    pairs = np.array(obj["amps"], dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"amps must be (re, im) pairs, got shape {pairs.shape}")
    return StateVector(int(obj["d"]), pairs.view(np.complex128))
