"""Threshold contaminant maps into binary anomaly maps and compact alerts.

Only anomalous information leaves the pipeline: per-patch alert messages
carry exceedance counts and summary statistics of the violating values,
never a raster. The scene workflow, ``run_scene``, is two steps:
``infer_scene`` (tile, infer the windows cloud leaves valid) and
``alert_scene`` (threshold, gated messages, mosaic of the binary maps back
to scene extent). The CLI runs the same two steps: ``infer`` calls
``infer_scene`` and ``alert`` calls ``alert_scene`` on the maps it reads
back.

NaN map cells are invalid: they never alert and are counted separately.
When a cloud plane is given, any window at least ``CLOUD_INVALID_FRACTION``
(half) covered by cloud is invalid. ``infer_scene`` reads the cloud
fractions before inference and never computes such a window: only the kept
windows run through the 1x1 stack (``convnet.infer_kept``), window j of a
patch in column j of a patch-shaped call. A scene costs as many calls as the
most patches that keep one window, and every computed cell is bit-identical
to ``infer_patch``'s, whichever BLAS micro-kernels the host selects.

Non-finite values: the stack raises ``NumericError`` when a computed window
gives a non-finite activation. A window under cloud is not computed, so a
reflectance there that would overflow the stack raises nothing, while the
same value in a kept window raises. A non-finite reflectance is refused by
``tile_scene`` (``NonFiniteError``) anywhere in the scene, clouded or not.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .convnet import ContaminantMap, ConvNet, infer_kept
from .errors import DimensionError, InconsistencyError, SchemaError, read_document
from .raster import (WINDOW, BandStack, GeoRef, TileIndex, TileResult, mosaic, tile_scene,
                     window_fraction)
from .sensor import PH, TURBIDITY, MaskSet, check_parameter

MAX_ALERT_BYTES = 512
MAX_SCENE_ID_BYTES = 64  # counted as serialized, JSON-escaped
CLOUD_INVALID_FRACTION = 0.5  # window cloud cover at and above which it is invalid

# Default policies, fully configurable: sustained turbidity above 10 NTU
# pressures aquatic organisms; pH outside [6.0, 9.0] leaves the tolerance
# band of sensitive freshwater species (salmonid distress below 6.0).
DEFAULT_POLICIES = {
    TURBIDITY: {"upper_bound": 10.0},
    PH: {"lower_bound": 6.0, "upper_bound": 9.0},
}

# The JSON kind of each ``ThresholdPolicy`` field.
_POLICY_KINDS = {"parameter": "a string", "lower_bound": "a number or null",
                 "upper_bound": "a number or null"}


@dataclass(frozen=True)
class ThresholdPolicy:
    """Bounds for one parameter; a patch with any valid cell outside them
    alerts."""

    parameter: str
    lower_bound: float | None = None
    upper_bound: float | None = None
    # not a field: the benchmark reads the fraction here
    cloud_invalid_fraction: ClassVar[float] = CLOUD_INVALID_FRACTION

    def __post_init__(self):
        check_parameter(self.parameter)
        if self.lower_bound is None and self.upper_bound is None:
            raise SchemaError("policy needs at least one bound")
        for name in ("lower_bound", "upper_bound"):
            bound = getattr(self, name)
            if bound is not None and not math.isfinite(bound):
                raise SchemaError(f"{name} must be finite, got {bound}")
        if (self.lower_bound is not None and self.upper_bound is not None
                and not self.lower_bound < self.upper_bound):
            raise SchemaError("lower bound must be below upper bound")

    @property
    def policy_id(self) -> str:
        parts = [self.parameter]
        if self.lower_bound is not None:
            parts.append(f"lo={self.lower_bound:g}")
        if self.upper_bound is not None:
            parts.append(f"hi={self.upper_bound:g}")
        return "|".join(parts)

    @classmethod
    def default_for(cls, parameter: str) -> "ThresholdPolicy":
        return cls(parameter=parameter, **DEFAULT_POLICIES[parameter])

    @classmethod
    def from_json(cls, doc: dict) -> "ThresholdPolicy":
        return cls(**read_document(doc, "policy", _POLICY_KINDS, required=("parameter",)))


@dataclass
class AlertMap:
    """Binary exceedance grid for one patch; invalid cells never alert."""

    cells: np.ndarray              # uint8, 1 where the policy is violated
    invalid: np.ndarray            # bool, NaN or cloud-invalidated windows

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.uint8)
        self.invalid = np.asarray(self.invalid, dtype=bool)
        if self.cells.shape != self.invalid.shape:
            raise InconsistencyError("cells and invalid mask differ in shape")

    @property
    def exceed_count(self) -> int:
        return int(self.cells.sum())

    @property
    def valid_count(self) -> int:
        return int(self.cells.size - self.invalid.sum())

    @property
    def exceed_fraction(self) -> float:
        """Fraction of valid cells violating the policy (0 if none valid)."""
        return self.exceed_count / self.valid_count if self.valid_count else 0.0


def threshold(cmap: ContaminantMap, policy: ThresholdPolicy) -> AlertMap:
    """Cell-wise bound check of a contaminant map."""
    if cmap.parameter != policy.parameter:
        raise InconsistencyError(
            f"map is {cmap.parameter!r}, policy is {policy.parameter!r}"
        )
    values = cmap.values
    invalid = ~np.isfinite(values)
    violate = np.zeros(values.shape, dtype=bool)
    with np.errstate(invalid="ignore"):
        if policy.lower_bound is not None:
            violate |= values < policy.lower_bound
        if policy.upper_bound is not None:
            violate |= values > policy.upper_bound
    violate &= ~invalid
    return AlertMap(cells=violate.astype(np.uint8), invalid=invalid)


@dataclass
class AlertMessage:
    """Compact downlink record for one alerting patch; no raster inside.

    The field order below is the wire order of ``serialize_alert``.
    """

    scene_id: str
    lat: float
    lon: float
    acquired: dt.date
    parameter: str
    policy_id: str
    exceed_count: int
    exceed_fraction: float
    invalid_count: int
    violating_min: float
    violating_max: float
    violating_mean: float
    timestamp: str                # ISO-8601 UTC, second resolution

    def __post_init__(self):
        check_parameter(self.parameter)
        # serialize_alert escapes each non-ASCII character to 6 or 12 bytes
        size = len(json.dumps(self.scene_id)) - 2
        if size > MAX_SCENE_ID_BYTES:
            raise SchemaError(f"scene id is {size} bytes as JSON, over "
                              f"{MAX_SCENE_ID_BYTES}: {self.scene_id!r}")
        if self.exceed_count <= 0:
            raise ValueError("alert messages require at least one violation")


def make_message(
    scene_id: str,
    cmap: ContaminantMap,
    amap: AlertMap,
    policy: ThresholdPolicy,
    timestamp: str,
) -> AlertMessage | None:
    """Build the patch message stamped ``timestamp``, or None when no cell
    violates ``policy``."""
    if amap.exceed_count == 0:
        return None
    violating = cmap.values[amap.cells.astype(bool)]
    return AlertMessage(
        scene_id=scene_id,
        lat=cmap.georef.center_lat,
        lon=cmap.georef.center_lon,
        acquired=cmap.georef.acquisition_date,
        parameter=cmap.parameter,
        policy_id=policy.policy_id,
        exceed_count=amap.exceed_count,
        exceed_fraction=amap.exceed_fraction,
        invalid_count=int(amap.invalid.sum()),
        violating_min=float(violating.min()),
        violating_max=float(violating.max()),
        violating_mean=float(violating.mean()),
        timestamp=timestamp,
    )


def serialize_alert(msg: AlertMessage) -> bytes:
    """Canonical single-line JSON record, ``AlertMessage``'s field order,
    <= 512 bytes."""
    doc = {}
    for field in fields(msg):
        value = getattr(msg, field.name)
        doc[field.name] = value.isoformat() if isinstance(value, dt.date) else value
    line = json.dumps(doc, separators=(",", ":")).encode()
    if len(line) > MAX_ALERT_BYTES:
        raise ValueError(f"serialized alert is {len(line)} bytes > {MAX_ALERT_BYTES}")
    return line


# The JSON kind of each field of a serialized ``AlertMessage``, in its wire order.
_ALERT_KINDS = {
    "scene_id": "a string", "lat": "a number", "lon": "a number", "acquired": "a date",
    "parameter": "a string", "policy_id": "a string", "exceed_count": "an integer",
    "exceed_fraction": "a number", "invalid_count": "an integer",
    "violating_min": "a number", "violating_max": "a number",
    "violating_mean": "a number", "timestamp": "a string",
}


def parse_alert(line: bytes | str) -> AlertMessage:
    """The message of one serialized alert line; a line without every field,
    with another key or with a value of another JSON kind raises
    ``SchemaError``."""
    return AlertMessage(**read_document(json.loads(line), "alert", _ALERT_KINDS,
                                        required=_ALERT_KINDS))


@dataclass
class SceneAlertResult:
    mosaic: BandStack             # uint8 binary exceedance raster
    messages: list[AlertMessage]
    maps: list[ContaminantMap]
    alert_maps: list[AlertMap]
    index: TileIndex


def infer_scene(
    scene: BandStack,
    net: ConvNet,
    scene_georef: GeoRef | None = None,
    cloud: np.ndarray | None = None,
    scene_id: str = "scene",
) -> tuple[TileResult, list[ContaminantMap]]:
    """Tile a scene and infer the windows of every patch that cloud leaves
    valid.

    ``cloud`` is the scene's boolean cloud plane, or None for a clear scene.
    A window at least ``CLOUD_INVALID_FRACTION`` covered by cloud is not
    computed: its map cell is NaN. Every other cell is bit-identical to
    ``infer_patch``'s (``convnet.infer_kept``). The stack's non-finite check
    covers only the computed windows, so a reflectance under cloud that
    would overflow the stack raises nothing, while the same value in a kept
    window raises ``NumericError``; a non-finite reflectance anywhere is
    refused by ``tile_scene``. Returns the tiles and their maps, ``maps[i]``
    being the map of the patch at ``tiles.index.placements[i]``.
    """
    if cloud is not None and cloud.shape != (scene.height, scene.width):
        raise DimensionError(f"cloud plane {cloud.shape} does not match the "
                             f"scene {(scene.height, scene.width)}")
    tiles = tile_scene(scene, scene_georef, patch_id_prefix=scene_id)
    ps = tiles.index.patch_size
    kept = (None if cloud is None else
            window_fraction(cloud[r0 : r0 + ps, c0 : c0 + ps], WINDOW)
            < CLOUD_INVALID_FRACTION
            for r0, c0 in tiles.index.placements)
    return tiles, infer_kept(net, tiles.patches, kept)


def alert_scene(
    maps: list[ContaminantMap],
    index: TileIndex,
    policy: ThresholdPolicy,
    scene_id: str,
    timestamp: str | None = None,
) -> SceneAlertResult:
    """Threshold a scene's maps, build the gated messages and mosaic the cells.

    Every message of the scene carries one timestamp: ``timestamp``, or the
    current UTC time read once. The mosaic reproduces the per-patch alert
    cells exactly.
    """
    if timestamp is None:
        timestamp = dt.datetime.now(dt.timezone.utc).isoformat(timespec="seconds")
    alert_maps = [threshold(m, policy) for m in maps]
    messages = []
    for cmap, amap in zip(maps, alert_maps):
        msg = make_message(scene_id, cmap, amap, policy, timestamp)
        if msg is not None:
            messages.append(msg)
    mosaicked = mosaic(
        [a.cells for a in alert_maps], index, band_ids=(policy.policy_id,)
    )
    return SceneAlertResult(
        mosaic=mosaicked,
        messages=messages,
        maps=maps,
        alert_maps=alert_maps,
        index=index,
    )


def run_scene(
    scene: BandStack,
    net: ConvNet,
    policy: ThresholdPolicy,
    scene_georef: GeoRef | None = None,
    masks: MaskSet | None = None,
    scene_id: str = "scene",
    timestamp: str | None = None,
) -> SceneAlertResult:
    """``infer_scene`` on the cloud plane of ``masks``, then ``alert_scene``."""
    tiles, maps = infer_scene(scene, net, scene_georef,
                              None if masks is None else masks.cloud, scene_id)
    return alert_scene(maps, tiles.index, policy, scene_id, timestamp)
