"""The benchmark's workloads: the expmart config each one runs, drawn from a seed.

The program only ever sees the generated INI file.  Every key a workload
depends on is written out, so a later change of expmart's defaults or presets
does not silently change what the benchmark measures.

Besides the config, each workload carries what the independent checks in
``checks.py`` need to know about its cases: for every sampled case the
closed-form integrands E|Z_t|^2 (as functions of t, for X = B_t on [0, 1]).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

HORIZON = 1.0
GRID_STEPS = 512
PATHS = 100_000
K_SIGMA = 4.0
DISC_FACTOR = 10.0
L2_K_MAX = 13

# The complex case Y = X E(ib).  Its Gauss transform is G Y = -i (X - 2bt) E(b)
# at q = t, so the second integrand carries the real exponential E(b); b = 1/2
# keeps |E(b)|^2 = exp(2bX - b^2 t) light-tailed enough that its sample mean
# is within the reported standard errors on every seed.
B_IMAG = 0.5
COMPLEX_TEMPLATE = f"0,1@{B_IMAG}j"
# For the same reason lemma2 uses +-1/2, not the default +-1: E(1) conj(E(1))
# = exp(2X - 1) is lognormal with sigma 2, and at N = 1e6 its sample mean falls
# more than 4 standard errors below e on about 1 seed in 1000.
LEMMA2_EXPONENTS = "0.5 -0.5 1j"


@dataclass(frozen=True)
class IsometryCase:
    """Row ``isometry[<label>]``: E|int Z dX|^2 against int E|Z_t|^2 dt."""

    label: str
    energy: Callable[[float], float]  # t -> E|Z_t|^2


@dataclass(frozen=True)
class H2Case:
    """Rows ``h2[<name>]`` (and ``h2-target[<name>]`` when ``target`` is set).

    ``energy1``/``energy2`` are E|(X - g)Y_t|^2 and E|(X - gt) G Y_t|^2, whose
    integrals over [0, T] are the two sampled factors squared; ``rhs`` is
    E|Y_t|^2 h(t), whose integral is the exact right side.
    """

    name: str
    energy1: Callable[[float], float]
    energy2: Callable[[float], float]
    rhs: Callable[[float], float]
    target: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # suite on the command line ("all"), or None to use the [run] suites key
    subcommand: str | None
    # seconds of --seconds each round stands for; sets the round count
    round_share_s: float
    sections: dict[str, dict[str, str]]
    isometry: tuple[IsometryCase, ...] = ()
    h2: tuple[H2Case, ...] = ()
    # run the same config at one worker and require the same report.csv
    compare_workers: bool = False
    spot_check_algebra: bool = False
    params: dict = field(default_factory=dict)

    def ini_text(self, out_dir: str, workers: int | None = None) -> str:
        lines = []
        for section, keys in self.sections.items():
            lines.append(f"[{section}]")
            for key, value in keys.items():
                if section == "run" and key == "workers" and workers is not None:
                    value = str(workers)
                lines.append(f"{key} = {value}")
            if section == "run":
                lines.append(f"out_dir = {out_dir}")
            lines.append("")
        return "\n".join(lines)

    def cli_args(self, ini_path: str) -> list[str]:
        args = [self.subcommand] if self.subcommand else []
        return args + ["--config", ini_path]

    def rounds(self, seconds: float) -> int:
        """Whole expmart runs per benchmark run: fixed by ``seconds`` alone,
        so every run with the same ``seconds`` attempts the same operations."""
        return max(2, int(seconds // self.round_share_s))


def _expmart_seed(seed: int) -> int:
    return random.Random(seed).randrange(1, 2**31)


def _run_section(seed: int, suites: str, workers: int, paths: int, steps: int) -> dict:
    return {
        "seed": str(_expmart_seed(seed)),
        "workers": str(workers),
        "horizon": repr(HORIZON),
        "grid_steps": str(steps),
        "paths": str(paths),
        "time_change": "identity",
        "suites": suites,
    }


_ALGEBRA_SECTIONS = {
    "algebra": {"n_random": "1000"},
    "h1": {
        "cases": "one-equality coordinate exp-energy exp-equality",
        "n_random": "500",
        "tol": "1e-09",
    },
    "l2limit": {"exponents": "0 1 1j", "k_max": str(L2_K_MAX)},
}

BROWNIAN_EQUALITY = H2Case(
    "brownian-equality", energy1=lambda t: t, energy2=lambda t: t,
    rhs=lambda t: t, target=0.5,
)
BROWNIAN_STRICT = H2Case(
    "brownian-strict", energy1=lambda t: 3 * t * t, energy2=lambda t: 3 * t * t,
    rhs=lambda t: t * t, target=1.0,
)


def exact_algebra(seed: int) -> Workload:
    return Workload(
        name="exact-algebra",
        why="exact algebra only (apply_G, mul, inner products, mpmath escalation); "
        "no paths, so a sampled-kernel change must leave it flat",
        subcommand=None,
        round_share_s=8.0,
        sections={
            "run": _run_section(seed, "check-algebra h1 l2limit", 1, 20000, 256),
            **_ALGEBRA_SECTIONS,
        },
        spot_check_algebra=True,
        params={"seed": seed},
    )


def sampled_ito(seed: int) -> Workload:
    rng = random.Random(f"sampled-ito:{seed}")
    a = round(rng.uniform(0.3, 0.5), 3)
    g0 = round(rng.uniform(0.0, 0.5), 3)
    v = round(rng.uniform(0.25, 0.75), 3)
    complex_case = f"template:{COMPLEX_TEMPLATE};g=const:{g0};gt=pw:0:0,1:{v}"
    # |E(ib)|^2 = exp(b^2 t), and (X - g0) X has second moment 3t^2 + g0^2 t.
    # Under the E(b)^2 tilt X shifts by 2bt, so with gt(t) = v t the second
    # integrand is exp(b^2 t) E[X^2 (X + (2b - v) t)^2].
    b2 = B_IMAG * B_IMAG
    complex_h2 = H2Case(
        f"template[{COMPLEX_TEMPLATE}]",
        energy1=lambda t: math.exp(b2 * t) * (3 * t * t + g0 * g0 * t),
        energy2=lambda t: math.exp(b2 * t) * (3 * t * t + (2 * B_IMAG - v) ** 2 * t**3),
        rhs=lambda t: t * t * math.exp(b2 * t),
    )
    return Workload(
        name="sampled-ito",
        why="isometry and h2 at N=1e5, M=512: path generation, element evaluation "
        "and the Ito column loop dominate; the exact algebra does little",
        subcommand=None,
        round_share_s=20.0,
        sections={
            "run": _run_section(seed, "isometry h2", 1, PATHS, GRID_STEPS),
            "isometry": {"cases": f"template:1@{a}"},
            "h2": {
                "cases": f"brownian-equality brownian-strict {complex_case}",
                "k_sigma": repr(K_SIGMA),
                "disc_factor": repr(DISC_FACTOR),
            },
        },
        isometry=(IsometryCase(f"template:1@{a}", lambda t: math.exp(a * a * t)),),
        h2=(BROWNIAN_EQUALITY, BROWNIAN_STRICT, complex_h2),
        params={"seed": seed, "a": a, "g0": g0, "v": v},
    )


def acceptance(seed: int) -> Workload:
    return Workload(
        name="acceptance",
        why="all suites at acceptance scale, 2 workers: lemma2's 1e6-path column, "
        "the mpmath PDE stencils, and two threads sharing the GIL and _MP_LOCK",
        subcommand="all",
        round_share_s=20.0,
        sections={
            "run": _run_section(seed, "", 2, PATHS, GRID_STEPS),
            **_ALGEBRA_SECTIONS,
            "lemma2": {"paths": "1000000", "exponents": LEMMA2_EXPONENTS},
            "isometry": {"cases": "one x"},
            "h2": {
                "cases": "brownian-equality brownian-strict",
                "k_sigma": repr(K_SIGMA),
                "disc_factor": repr(DISC_FACTOR),
            },
            "pde": {"exponents": "0 1 1j 1+1j", "step": "0.0001"},
        },
        isometry=(IsometryCase("one", lambda t: 1.0), IsometryCase("x", lambda t: t)),
        h2=(BROWNIAN_EQUALITY, BROWNIAN_STRICT),
        compare_workers=True,
        params={"seed": seed},
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "exact-algebra": exact_algebra,
    "sampled-ito": sampled_ito,
    "acceptance": acceptance,
}
