"""Run configuration: defaults, INI files, presets, and the spec mini-grammars.

Element templates: terms joined by " + ", each term "c0,c1,...@exponent"
(coefficients low degree first, complex literals as Python: 1, -0.5, 1j,
1+1j).  Examples: "1@0" is the constant 1, "0,1@0" is X, "1@1" is the
exponential martingale with exponent 1, "1,0,2@0.5j" is (1 + 2 X^2) E(0.5j).

Centerings: "zero", "const:<v>", or "pw:<t>:<v>,<t>:<v>,...".
Time changes: "identity", "power:<alpha>", or "pw:<t>:<v>,...".
Cases (h1, h2, isometry): a named case, or "template:<element>[;key=value]...",
with each kind's own names and option keys; an option given twice is an
error.

Each ``RunConfig`` field declares, in its metadata, the INI section and key
that set it and the parser of that key's text (``_ini``); ``load_ini`` reads
the file's keys from the fields, so the dataclass is the one schema.
"""

from __future__ import annotations

import cmath
import configparser
import dataclasses
import math
import re
from dataclasses import dataclass
from typing import Callable

from .processes import InvalidTimeChangeError, PiecewiseLinear, TimeChange, TimeGrid
from .verify import DISC_FACTOR, H1_TOL, K_SIGMA, L2_K_MAX_DEFAULT, PDE_STEP, format_complex

__all__ = [
    "RunConfig",
    "PRESETS",
    "SUITES",
    "L2_K_MAX",
    "ConfigError",
    "load_ini",
    "apply_preset",
    "parse_complex",
    "parse_complex_list",
    "parse_element_template",
    "parse_centering",
    "parse_time_change",
    "parse_h1_case",
    "parse_h2_case",
    "parse_isometry_case",
]

SUITES = ("check-algebra", "lemma2", "isometry", "h1", "h2", "pde", "l2limit")

# Largest [l2limit] k_max a run accepts.  The quotient (E(r) - 1)/r is formed
# in float64, so its rounding error grows like eps/r while the norm it tracks
# shrinks like r.  With the default exponents 0, 1, 1j at q = 1 every k_max
# from 13 to 25 passes, 26 and 27 fail the ratio row, and from 40 on
# r = 2^-k < CANONICAL_TOL merges E(r) E(c) into E(c), failing every row.
L2_K_MAX = 25


class ConfigError(ValueError):
    """Bad configuration file, preset name, or spec string."""


def _ini(section: str, key: str, parse: Callable[[str], object], default: object):
    """A ``RunConfig`` field set by the INI key ``[section] key``, whose text
    ``parse`` turns into the field's value."""
    return dataclasses.field(default=default, metadata={"ini": (section, key), "parse": parse})


# the list fields: suite names, case specs and complex literals
Specs = tuple[str, ...]


def _parse_names(s: str) -> Specs:
    """Whitespace-separated names; a standalone "+" keeps its neighbours in
    one name, so a multi-term template case ("1@0 + 0,1@1") is one case."""
    return tuple(" ".join(m.split()) for m in re.findall(r"\S+(?:\s+\+\s+\S+)*", s))


def parse_complex_list(s: str) -> Specs:
    return tuple(s.replace(",", " ").split())


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a verification run; every suite reads only what it needs.

    Constructing one validates it: a value no run can use raises
    ``ConfigError``, so every ``RunConfig`` that exists is valid.
    """

    seed: int = _ini("run", "seed", int, 20260815)
    workers: int = _ini("run", "workers", int, 1)
    out_dir: str = _ini("run", "out_dir", str, "reports")
    horizon: float = _ini("run", "horizon", float, 1.0)
    grid_steps: int = _ini("run", "grid_steps", int, 256)
    paths: int = _ini("run", "paths", int, 20000)
    time_change: str = _ini("run", "time_change", str, "identity")
    # suites to run when the command line names none; empty means "show usage"
    suites: Specs = _ini("run", "suites", _parse_names, ())
    algebra_n_random: int = _ini("algebra", "n_random", int, 1000)
    # lemma2 (two-point exponential formula)
    lemma2_paths: int = _ini("lemma2", "paths", int, 1_000_000)
    lemma2_exponents: Specs = _ini("lemma2", "exponents", parse_complex_list, ("1", "-1", "1j"))
    isometry_cases: Specs = _ini("isometry", "cases", _parse_names, ("one", "x"))
    h1_cases: Specs = _ini(
        "h1", "cases", _parse_names, ("one-equality", "coordinate", "exp-energy", "exp-equality")
    )
    h1_n_random: int = _ini("h1", "n_random", int, 500)
    h1_tol: float = _ini("h1", "tol", float, H1_TOL)
    h2_cases: Specs = _ini("h2", "cases", _parse_names, ("brownian-equality", "brownian-strict"))
    h2_k_sigma: float = _ini("h2", "k_sigma", float, K_SIGMA)
    h2_disc_factor: float = _ini("h2", "disc_factor", float, DISC_FACTOR)
    pde_exponents: Specs = _ini("pde", "exponents", parse_complex_list, ("0", "1", "1j", "1+1j"))
    pde_step: float = _ini("pde", "step", float, PDE_STEP)
    l2_exponents: Specs = _ini("l2limit", "exponents", parse_complex_list, ("0", "1", "1j"))
    l2_k_max: int = _ini("l2limit", "k_max", int, L2_K_MAX_DEFAULT)

    def __post_init__(self) -> None:
        # the inputs' Philox keys, (seed + channel) * 2**64 with channel <= 5, are < 2**128
        if not 0 <= self.seed < 2**64 - 5:
            raise ConfigError("seed must be >= 0 and below 2**64 - 5, the Philox key range")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.grid_steps < 1 or self.paths < 2 or self.lemma2_paths < 2:
            raise ConfigError("grid_steps must be >= 1 and path counts >= 2")
        try:  # refuses a horizon that is not finite and > 0, and repeated points
            TimeGrid.uniform(self.horizon, self.grid_steps)
        except ValueError as e:
            raise ConfigError(f"no {self.grid_steps}-step grid to {self.horizon!r}: {e}") from None
        if self.algebra_n_random < 1 or self.h1_n_random < 1:
            raise ConfigError("randomized case counts must be >= 1")
        if not 2 <= self.l2_k_max <= L2_K_MAX:
            raise ConfigError(f"l2_k_max must be in [2, {L2_K_MAX}]")
        if not (math.isfinite(self.pde_step) and self.pde_step > 0):
            raise ConfigError("pde_step must be finite and > 0")
        if not (math.isfinite(self.h1_tol) and self.h1_tol > 0):
            raise ConfigError("h1_tol must be finite and > 0")
        if not all(math.isfinite(v) and v >= 0 for v in (self.h2_k_sigma, self.h2_disc_factor)):
            raise ConfigError("h2_k_sigma and h2_disc_factor must be finite and >= 0")
        for s in self.suites:
            if s not in SUITES and s != "all":
                raise ConfigError(
                    f"unknown suite {s!r}; expected one of {', '.join(SUITES)} or all"
                )
        try:
            q = parse_time_change(self.time_change)(self.horizon)
        except OverflowError:
            q = math.inf
        if not math.isfinite(q):
            raise ConfigError(f"time change {self.time_change!r} is not finite at the horizon")

        def labels_of(exponents: Specs) -> list[str]:
            return [format_complex(parse_complex(s)) for s in exponents]

        # a label names rows and a task, so no two cases or exponents share one
        for kind, labels in (
            ("lemma2 exponents", labels_of(self.lemma2_exponents)),
            ("pde exponents", labels_of(self.pde_exponents)),
            ("l2limit exponents", labels_of(self.l2_exponents)),
            ("h2 cases", [parse_h2_case(s)["name"] for s in self.h2_cases]),
            ("isometry cases", [parse_isometry_case(s)[0] for s in self.isometry_cases]),
            ("h1 cases", [parse_h1_case(s)["name"] for s in self.h1_cases]),
        ):
            repeated = [label for label in dict.fromkeys(labels) if labels.count(label) > 1]
            if repeated:
                raise ConfigError(f"two {kind} share the label {repeated[0]!r}")


# named parameterizations; acceptance-scale sizes where a criterion pins them
PRESETS: dict[str, dict] = {
    "default": {},
    "acceptance": dict(paths=100_000, grid_steps=512),
    "brownian-equality": dict(
        paths=100_000, grid_steps=512, h2_cases=("brownian-equality",)
    ),
    "brownian-strict": dict(
        paths=100_000, grid_steps=512, h2_cases=("brownian-strict",)
    ),
}


def apply_preset(cfg: RunConfig, name: str) -> RunConfig:
    try:
        overrides = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return dataclasses.replace(cfg, **overrides)


# ---------------------------------------------------------------------------
# spec-string parsers

def parse_complex(s: str) -> complex:
    try:
        z = complex(s.strip().replace(" ", ""))
    except ValueError:
        raise ConfigError(f"bad complex literal {s!r}") from None
    if not cmath.isfinite(z):
        raise ConfigError(f"complex literal {s!r} is not finite")
    return z


def parse_element_template(s: str) -> tuple[tuple[complex, tuple[complex, ...]], ...]:
    terms = []
    for chunk in s.split(" + "):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "@" not in chunk:
            raise ConfigError(f"element term {chunk!r} needs 'coeffs@exponent'")
        coeff_part, _, exp_part = chunk.rpartition("@")
        coeffs = tuple(parse_complex(tok) for tok in coeff_part.split(","))
        terms.append((parse_complex(exp_part), coeffs))
    if not terms:
        raise ConfigError(f"empty element template {s!r}")
    return tuple(terms)


def _parse_knots(body: str) -> tuple[tuple[float, float], ...]:
    toks = body.split(",")
    knots = []
    for tok in toks:
        t, _, v = tok.partition(":")
        try:
            knots.append((float(t), float(v)))
        except ValueError:
            raise ConfigError(f"bad knot {tok!r}; expected t:v") from None
    return tuple(knots)


def parse_centering(s: str) -> PiecewiseLinear:
    s = s.strip()
    if s == "zero":
        return PiecewiseLinear.zero()
    if s.startswith("const:"):
        try:
            return PiecewiseLinear.constant(float(s[6:]))
        except ValueError as e:
            raise ConfigError(f"bad centering {s!r}: {e}") from None
    if s.startswith("pw:"):
        knots = _parse_knots(s[3:])
        try:
            return PiecewiseLinear(knots)
        except ValueError as e:
            raise ConfigError(f"bad centering {s!r}: {e}") from None
    raise ConfigError(f"unknown centering {s!r}")


def parse_time_change(s: str) -> TimeChange:
    s = s.strip()
    if s == "identity":
        return TimeChange.identity()
    if s.startswith("power:"):
        try:
            return TimeChange.power(float(s[6:]))
        except ValueError:
            raise ConfigError(f"bad time change {s!r}") from None
    if s.startswith("pw:"):
        knots = _parse_knots(s[3:])
        try:
            return TimeChange.piecewise_linear(knots)
        except InvalidTimeChangeError as e:
            raise ConfigError(f"bad time change {s!r}: {e}") from None
    raise ConfigError(f"unknown time change {s!r}")


def _parse_case(
    s: str,
    kind: str,
    named: dict[str, tuple[str, dict]],
    options: dict[str, tuple[str, Callable[[str], object], object]],
    label: str,
) -> dict:
    """A ``kind`` case: a key of ``named``, or 'template:<element>[;key=value]...'.

    ``named`` maps a case name to its element template and the fields it sets;
    ``options`` maps a template option key to its field, converter and
    default.  Returns the fields, every option default included, with
    ``name`` (a named case's name, else ``label`` formatted with ``element``
    and the fields) and ``template`` (the parsed element).
    """
    s = s.strip()
    fields = {field: default for field, _, default in options.values()}
    if s in named:
        element, extra = named[s]
        return dict(fields, **extra, name=s, template=parse_element_template(element))
    if not s.startswith("template:"):
        raise ConfigError(f"unknown {kind} case {s!r}")
    element, *extras = s[len("template:") :].split(";")
    given = set()
    for extra in extras:
        key, _, val = extra.partition("=")
        if key not in options:
            raise ConfigError(f"unknown {kind} case option {extra!r}")
        if key in given:
            raise ConfigError(f"repeated {kind} case option {extra!r}")
        given.add(key)
        field, convert, _ = options[key]
        try:
            fields[field] = convert(val)
        except ValueError as e:
            raise ConfigError(f"bad {kind} case option {extra!r}: {e}") from None
    name = label.format(element=element, **fields)
    return dict(fields, name=name, template=parse_element_template(element))


def parse_h2_case(s: str) -> dict:
    """An h2 case: a named one or 'template:<element>[;g=<cen>][;gt=<cen>]'.

    A named case's ``target_lhs`` maps q = h(T) to the closed form of its left
    side, both centerings zero: Y = 1 gives E|int X dX|^2 = int h dh = q^2/2
    for each factor, and Y = X gives int 3 h^2 dh = q^3 for each.
    """
    named = {
        "brownian-equality": ("1@0", dict(target_lhs=lambda q: q * q / 2)),
        "brownian-strict": ("0,1@0", dict(target_lhs=lambda q: q**3)),
    }
    zero = PiecewiseLinear.zero()
    options = {"g": ("g", parse_centering, zero), "gt": ("g_tilde", parse_centering, zero)}
    case = _parse_case(s, "h2", named, options, "template[{element}]")
    case.setdefault("target_lhs", None)
    return case


def parse_h1_case(s: str) -> dict:
    """A fixed-time inequality case: named, or 'template:<el>;c=..;ct=..;q=..'.

    Named cases (all at q = 1): 'one-equality' (Y = 1, c = ct = 0, an equality
    case), 'coordinate' (Y = X, c = ct = 0), 'exp-energy' (Y = E(1),
    c = ct = 0, right side e), 'exp-equality' (Y = E(0.5), c = 2*0.5*q = 1,
    ct = 0, an equality case).  ``equality`` marks the equality cases; a
    template case is never one.
    """
    named = {
        "one-equality": ("1@0", dict(equality=True)),
        "coordinate": ("0,1@0", dict(equality=False)),
        "exp-energy": ("1@1", dict(equality=False)),
        "exp-equality": ("1@0.5", dict(c=1.0, equality=True)),
    }
    options = {"c": ("c", float, 0.0), "ct": ("ct", float, 0.0), "q": ("q", float, 1.0)}
    label = "template[{element};c={c:g};ct={ct:g};q={q:g}]"
    case = _parse_case(s, "h1", named, options, label)
    if not all(math.isfinite(case[k]) for k in ("c", "ct", "q")):
        raise ConfigError(f"h1 case options must be finite, got {s.strip()!r}")
    if case["q"] < 0:
        raise ConfigError("h1 case variance must be >= 0")
    case.setdefault("equality", False)
    return case


def parse_isometry_case(s: str) -> tuple[str, tuple]:
    """An isometry case: 'one' (Z = 1), 'x' (Z = X) or 'template:<element>'."""
    named = {"one": ("1@0", {}), "x": ("0,1@0", {})}
    case = _parse_case(s, "isometry", named, {}, "template:{element}")
    return case["name"], case["template"]


# ---------------------------------------------------------------------------
# INI loading

def load_ini(path: str) -> RunConfig:
    # no interpolation: a "%" in a value is literal; no file can name the
    # section "", so [DEFAULT] is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"malformed config file {path}: {e}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    fields = {f.metadata["ini"]: f for f in dataclasses.fields(RunConfig)}
    updates: dict = {}
    for section in parser.sections():
        if section not in {known for known, _ in fields}:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if (section, key) not in fields:
                raise ConfigError(f"unknown [{section}] key {key!r}")
            field = fields[section, key]
            try:
                updates[field.name] = field.metadata["parse"](value)
            except ValueError:
                raise ConfigError(f"bad value for [{section}] {key}: {value!r}") from None
    return RunConfig(**updates)
