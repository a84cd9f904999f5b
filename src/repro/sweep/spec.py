"""Declarative parameter-grid specs for ``repro sweep``.

A spec is a small JSON (or, on Python >= 3.11, TOML) document naming a
grid over scenario knobs::

    {
      "name": "loss-grid",
      "base": {"scale": 0.02},
      "axes": {
        "loss_rate": [0.0, 0.05, 0.2],
        "attack_scale": [0.5, 1.0, 2.0]
      },
      "metrics": ["rows.total", "removed_share"]
    }

``axes`` is an *ordered* mapping of axis name to value list; the grid is
their cartesian product, expanded in spec order (last axis fastest).
``base`` holds shared overrides applied to every cell before its own
coordinates.  Both accept any :class:`~repro.workloads.scenario.
ScenarioConfig` field plus two virtual knobs:

* ``scale`` — uniform traffic-volume factor, applied via
  :meth:`~repro.workloads.scenario.ScenarioConfig.scaled`;
* ``attack_scale`` — attacker-intensity factor, multiplying only the
  ``attacks_*`` volumes (the paper's "how hard is the telescope being
  spoofed at" axis).

Determinism follows the PR 3 seed discipline: in the default
``seed_mode: "derived"`` every cell's scenario seed is
:func:`~repro.workloads.scenario.derive_seed` of the base seed and the
cell's sorted ``axis=value`` coordinate strings — a pure function of the
cell's identity, independent of expansion order, worker count, or which
other cells exist.  ``seed_mode: "shared"`` keeps the base seed
everywhere instead, so cells differ *only* through their knobs (the
right mode when an axis isolates one mechanism and you want common
random numbers across cells).

A cell's identity — and hence its cache directory under the sweep
output — is a hash of its fully *resolved* config, not of the spec text:
re-running a grid with one axis extended re-simulates only the new
cells, and renaming the spec or reordering axes invalidates nothing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

from repro.core.selectors import validate_metric
from repro.errors import InputFileError
from repro.sweep.metrics import DEFAULT_METRICS
from repro.sweep.render import format_value
from repro.workloads.scenario import ScenarioConfig, derive_seed


class SweepSpecError(InputFileError):
    """A grid spec that cannot be expanded into cells."""


#: Knobs that are not plain :class:`ScenarioConfig` fields.
VIRTUAL_KNOBS = ("scale", "attack_scale")

SEED_MODES = ("derived", "shared")

_ATTACK_FIELDS = (
    "attacks_facebook",
    "attacks_google",
    "attacks_cloudflare",
    "attacks_offnet",
    "attacks_remaining",
)

_CONFIG_FIELDS = {f.name for f in fields(ScenarioConfig)}


def _check_knob(key: str, where: str) -> None:
    if key in VIRTUAL_KNOBS or key in _CONFIG_FIELDS:
        return
    raise SweepSpecError(
        "unknown knob %r in %s: expected a ScenarioConfig field or one of %s"
        % (key, where, "/".join(VIRTUAL_KNOBS))
    )


@dataclass(frozen=True)
class Cell:
    """One grid point: coordinates plus the fully resolved scenario."""

    index: int  # position in expansion order (last axis fastest)
    coords: tuple  # ((axis, value), ...) in spec axis order
    config: ScenarioConfig
    cell_id: str  # hash of the resolved config; the cache-directory key

    @property
    def label(self) -> str:
        return ",".join(
            "%s=%s" % (axis, format_value(value)) for axis, value in self.coords
        )


@dataclass
class SweepSpec:
    """A parsed grid spec, ready to expand."""

    name: str
    axes: dict  # ordered axis -> list of values
    base: dict = field(default_factory=dict)
    metrics: tuple = DEFAULT_METRICS
    seed_mode: str = "derived"

    def __post_init__(self) -> None:
        if self.seed_mode not in SEED_MODES:
            raise SweepSpecError(
                "seed_mode must be one of %s (got %r)"
                % ("/".join(SEED_MODES), self.seed_mode)
            )
        for key in self.base:
            _check_knob(key, "base")
        if not isinstance(self.axes, dict):
            raise SweepSpecError("axes must be a mapping of axis -> value list")
        for axis, values in self.axes.items():
            _check_knob(axis, "axes")
            if not isinstance(values, (list, tuple)) or not values:
                raise SweepSpecError(
                    "axis %r needs a non-empty list of values" % axis
                )
            if len(set(map(format_value, values))) != len(values):
                raise SweepSpecError("axis %r has duplicate values" % axis)
        self.metrics = tuple(self.metrics)
        if not self.metrics:
            raise SweepSpecError("metrics must name at least one metric")
        for metric in self.metrics:
            try:
                validate_metric(metric)
            except ValueError as exc:
                raise SweepSpecError(str(exc)) from exc

    @property
    def axis_names(self) -> tuple:
        return tuple(self.axes)

    def resolve_config(self, coords) -> ScenarioConfig:
        """The :class:`ScenarioConfig` a cell at ``coords`` simulates."""
        params = dict(self.base)
        params.update(dict(coords))
        scale = float(params.pop("scale", 1.0))
        attack_scale = float(params.pop("attack_scale", 1.0))
        try:
            config = replace(ScenarioConfig(), **params)
        except TypeError as exc:  # pragma: no cover - guarded by _check_knob
            raise SweepSpecError(str(exc)) from exc
        if scale != 1.0:
            config = config.scaled(scale)
        if attack_scale != 1.0:
            scaled_attacks = {
                name: int(getattr(config, name) * attack_scale)
                for name in _ATTACK_FIELDS
            }
            # Mirror ScenarioConfig.scaled(): the Cloudflare flood never
            # scales to zero (the group must keep one spoofed connection).
            scaled_attacks["attacks_cloudflare"] = max(
                1, scaled_attacks["attacks_cloudflare"]
            )
            config = replace(config, **scaled_attacks)
        if self.seed_mode == "derived":
            parts = [
                "%s=%s" % (axis, format_value(value))
                for axis, value in sorted(coords)
            ]
            config = replace(
                config, seed=derive_seed(config.seed, "sweep-cell", *parts)
            )
        return config

    def cells(self) -> list:
        """Expand the grid (cartesian product, last axis fastest)."""
        names = self.axis_names
        out = []
        for index, values in enumerate(
            itertools.product(*(self.axes[name] for name in names))
        ):
            coords = tuple(zip(names, values))
            config = self.resolve_config(coords)
            out.append(
                Cell(
                    index=index,
                    coords=coords,
                    config=config,
                    cell_id=cell_fingerprint(config),
                )
            )
        return out


def cell_fingerprint(config: ScenarioConfig) -> str:
    """A stable 12-hex-digit id for a fully resolved scenario config.

    Hashing the *resolved* config (all fields, including the derived
    seed) rather than the spec text means cache identity survives spec
    renames, axis reordering, and metric changes — exactly the edits
    that must not force a re-simulation.
    """
    text = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=6).hexdigest()


def spec_from_dict(doc: dict, default_name: str = "sweep") -> SweepSpec:
    """Build a :class:`SweepSpec` from a decoded JSON/TOML document."""
    if not isinstance(doc, dict):
        raise SweepSpecError("spec must be a JSON/TOML object")
    unknown = set(doc) - {"name", "axes", "base", "metrics", "seed_mode"}
    if unknown:
        raise SweepSpecError(
            "unknown spec keys: %s" % ", ".join(sorted(unknown))
        )
    if "axes" not in doc:
        raise SweepSpecError("spec needs an 'axes' mapping")
    return SweepSpec(
        name=str(doc.get("name", default_name)),
        axes=doc["axes"],
        base=dict(doc.get("base", {})),
        metrics=tuple(doc.get("metrics", DEFAULT_METRICS)),
        seed_mode=doc.get("seed_mode", "derived"),
    )


def load_spec(path: str) -> SweepSpec:
    """Parse a spec file; JSON always works, TOML needs Python >= 3.11."""
    with open(path, "rb") as fileobj:  # a missing spec is main's OSError line
        data = fileobj.read()
    default_name = os.path.splitext(os.path.basename(path))[0]
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # Python < 3.11 — tomllib is stdlib-only there
            raise SweepSpecError(
                "TOML specs need Python >= 3.11 (no tomllib); "
                "rewrite %s as JSON" % path
            ) from None
        try:
            doc = tomllib.loads(data.decode())
        except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
            raise SweepSpecError("invalid TOML in %s: %s" % (path, exc)) from exc
    else:
        try:
            doc = json.loads(data)
        except ValueError as exc:
            raise SweepSpecError("invalid JSON in %s: %s" % (path, exc)) from exc
    return spec_from_dict(doc, default_name=default_name)
