"""Experiment configs, output manifests, and the on-disk artifact formats.

Everything written here is deterministic: JSON is emitted in canonical form
(sorted keys, compact separators, shortest round-trip floats), CSV text comes
from `numerics.csv_text`, and the binary batch format is a fixed
little-endian layout.  Rerunning the same config with the same master
seed therefore reproduces every artifact byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io as _io
import json
import math
import platform
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .bounds import BOUNDS
from .distances import DISTANCE_CSV_COLUMNS, DistanceReport
from .errors import ConfigurationError, DataFormatError
from .models import ModelSpec

CONFIG_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1

# Bound identifiers a config may request: the keys of the bound table.
KNOWN_BOUND_TAGS = tuple(BOUNDS)

# A grid index doubles as the stream block for that grid point, so grids are
# kept clear of the reserved Monte Carlo blocks (psi/fluctuation/bracket).
MAX_GRID_POINTS = 64

MIN_REPLICATES = 100

# Binary batch layout, all integers little endian:
#   bytes  0..3   magic  b"CLTB"
#   bytes  4..5   format version, u16
#   bytes  6..7   payload kind, u16: 1 = statistic vector, 2 = increment matrix
#   bytes  8..15  row count, u64
#   bytes 16..23  column count, u64 (1 for vectors)
#   bytes 24..87  sha256 of the canonical config JSON, 64 ascii hex bytes
#   bytes 88..    row-major float64 payload, little endian
BATCH_MAGIC = b"CLTB"
BATCH_VERSION = 1
BATCH_KIND_VECTOR = 1
BATCH_KIND_MATRIX = 2
_BATCH_HEADER = struct.Struct("<4sHHQQ64s")
BATCH_HEADER_BYTES = _BATCH_HEADER.size


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a model template, an n-grid, and run bookkeeping.

    ``model`` carries the family, p, and family parameters; its n field is
    the template value and is replaced by each grid point when the runner
    instantiates per-n models.  ``a`` is the fixed inflation parameter, or
    None to let the bound table choose it (written "auto" in documents).
    """

    model: ModelSpec
    n_grid: tuple[int, ...]
    replicates: int
    master_seed: int
    outputs: str
    bound_requests: tuple[str, ...]
    a: Optional[float] = 1.0
    distance_kind: str = "kolmogorov"
    target_exponent: Optional[float] = None
    tolerance: float = 0.05
    fit_seeds: int = 1

    def __post_init__(self) -> None:
        if not self.n_grid:
            raise ConfigurationError("n_grid must be nonempty")
        if len(self.n_grid) > MAX_GRID_POINTS:
            raise ConfigurationError(
                f"n_grid may hold at most {MAX_GRID_POINTS} points, got {len(self.n_grid)}"
            )
        last = 0
        for n in self.n_grid:
            if not isinstance(n, int) or n <= last:
                raise ConfigurationError(
                    f"n_grid must be strictly increasing positive integers, got {self.n_grid!r}"
                )
            last = n
        if not isinstance(self.replicates, int) or self.replicates < MIN_REPLICATES:
            raise ConfigurationError(
                f"replicates must be an integer >= {MIN_REPLICATES}, got {self.replicates!r}"
            )
        if not isinstance(self.master_seed, int) or not (0 <= self.master_seed < 2**64):
            raise ConfigurationError(
                f"master_seed must be an unsigned 64-bit integer, got {self.master_seed!r}"
            )
        for tag in self.bound_requests:
            if tag not in KNOWN_BOUND_TAGS:
                raise ConfigurationError(
                    f"unknown bound tag {tag!r}; known tags: {', '.join(KNOWN_BOUND_TAGS)}"
                )
        if self.a is not None and not (_finite(self.a) and self.a >= 1.0):
            raise ConfigurationError(f"a must be a finite real >= 1 or 'auto', got {self.a!r}")
        if self.distance_kind not in ("kolmogorov", "w1", "w1_normalized"):
            raise ConfigurationError(f"unknown distance_kind {self.distance_kind!r}")
        if not (_finite(self.tolerance) and self.tolerance > 0.0):
            raise ConfigurationError(
                f"tolerance must be a finite positive real, got {self.tolerance!r}"
            )
        if self.target_exponent is not None and not _finite(self.target_exponent):
            raise ConfigurationError(
                f"target_exponent must be a finite real, got {self.target_exponent!r}"
            )
        if not isinstance(self.fit_seeds, int) or self.fit_seeds < 1:
            raise ConfigurationError(f"fit_seeds must be a positive integer, got {self.fit_seeds!r}")
        if self.master_seed + self.fit_seeds - 1 >= 2**64:
            raise ConfigurationError(
                f"master seeds {self.master_seed}..{self.master_seed + self.fit_seeds - 1} "
                "pass 2^64 - 1"
            )

    def spec_for(self, n: int) -> ModelSpec:
        """The model spec at one grid point."""
        return dataclasses.replace(self.model, n=int(n))

    def to_json_dict(self) -> dict[str, Any]:
        """The canonical document form; hashing and manifests start here."""
        doc: dict[str, Any] = {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "model": {
                "family": self.model.family,
                "n": self.model.n,
                "p": self.model.p,
                "params": _plain(self.model.params),
            },
            "n_grid": list(self.n_grid),
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "outputs": self.outputs,
            "bound_requests": list(self.bound_requests),
            "a": "auto" if self.a is None else float(self.a),
            "distance_kind": self.distance_kind,
            "tolerance": self.tolerance,
            "fit_seeds": self.fit_seeds,
        }
        if self.target_exponent is not None:
            doc["target_exponent"] = float(self.target_exponent)
        return doc

    def digest(self) -> str:
        return sha256_text(canonical_json(self.to_json_dict()))


def _finite(x: Any) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _plain(obj: Any) -> Any:
    """Recursively coerce a params or metadata tree to plain JSON-safe types."""
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise ConfigurationError(f"value {obj!r} is not JSON-representable")


def canonical_json(doc: Mapping[str, Any]) -> str:
    """Sorted-key compact JSON; float repr is the shortest round-trip form."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# config documents


def parse_config(doc: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a JSON document into an ExperimentConfig.

    Raises ConfigurationError with the offending key in the message; I/O and
    JSON syntax problems are handled by load_config.
    """
    if not isinstance(doc, Mapping):
        raise ConfigurationError("config document must be a JSON object")
    version = doc.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigurationError(
            f"schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}"
        )
    known = {
        "schema_version",
        "model",
        "n_grid",
        "replicates",
        "master_seed",
        "outputs",
        "bound_requests",
        "a",
        "distance_kind",
        "target_exponent",
        "tolerance",
        "fit_seeds",
    }
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")

    model_doc = doc.get("model")
    if not isinstance(model_doc, Mapping):
        raise ConfigurationError("config needs a 'model' object")
    try:
        spec = ModelSpec(
            family=model_doc.get("family"),
            n=int(model_doc.get("n", 0)),
            p=float(model_doc.get("p", 3.0)),
            params=dict(model_doc.get("params", {})),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad model block: {exc}") from exc

    raw_grid = doc.get("n_grid", [spec.n])
    if not isinstance(raw_grid, Sequence) or isinstance(raw_grid, (str, bytes)):
        raise ConfigurationError(f"n_grid must be a list of integers, got {raw_grid!r}")
    try:
        n_grid = tuple(int(n) for n in raw_grid)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"n_grid must be a list of integers: {exc}") from exc

    a = doc.get("a", 1.0)
    if a == "auto":
        a = None
    elif isinstance(a, (int, float)) and not isinstance(a, bool):
        a = float(a)
    else:
        raise ConfigurationError(f"a must be a real >= 1 or 'auto', got {a!r}")

    target = doc.get("target_exponent")
    if target is not None:
        try:
            target = float(target)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"target_exponent must be a real: {exc}") from exc

    return ExperimentConfig(
        model=spec,
        n_grid=n_grid,
        replicates=int(doc.get("replicates", MIN_REPLICATES)),
        master_seed=int(doc.get("master_seed", 0)),
        outputs=str(doc.get("outputs", "out")),
        bound_requests=tuple(doc.get("bound_requests", ())),
        a=a,
        distance_kind=str(doc.get("distance_kind", "kolmogorov")),
        target_exponent=target,
        tolerance=float(doc.get("tolerance", 0.05)),
        fit_seeds=int(doc.get("fit_seeds", 1)),
    )


def load_config(path: Path) -> ExperimentConfig:
    """Read and validate a config file.  OSError propagates to the caller."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON: {exc}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# binary batch files


def write_batch(path: Path, values: np.ndarray, config_sha256: str) -> None:
    """Write a float64 batch (statistic vector or increment matrix)."""
    arr = np.ascontiguousarray(np.asarray(values, dtype="<f8"))
    if arr.ndim == 1:
        kind, rows, cols = BATCH_KIND_VECTOR, arr.size, 1
    elif arr.ndim == 2:
        kind, rows, cols = BATCH_KIND_MATRIX, arr.shape[0], arr.shape[1]
    else:
        raise DataFormatError(f"batch payload must be 1-D or 2-D, got ndim={arr.ndim}")
    if len(config_sha256) != 64:
        raise DataFormatError("config_sha256 must be 64 hex characters")
    header = _BATCH_HEADER.pack(
        BATCH_MAGIC, BATCH_VERSION, kind, rows, cols, config_sha256.encode("ascii")
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes(order="C"))


def read_batch(path: Path) -> tuple[np.ndarray, str]:
    """Read a batch file back as (array, config sha256 hex)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < BATCH_HEADER_BYTES:
        raise DataFormatError(f"{path}: truncated batch header")
    magic, version, kind, rows, cols, digest = _BATCH_HEADER.unpack_from(raw)
    if magic != BATCH_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}, expected {BATCH_MAGIC!r}")
    if version != BATCH_VERSION:
        raise DataFormatError(f"{path}: unsupported batch version {version}")
    if kind not in (BATCH_KIND_VECTOR, BATCH_KIND_MATRIX):
        raise DataFormatError(f"{path}: unknown payload kind {kind}")
    expected = BATCH_HEADER_BYTES + 8 * rows * cols
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: payload length mismatch, header implies {expected} bytes, file has {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype="<f8", offset=BATCH_HEADER_BYTES)
    arr = flat.reshape(rows, cols) if kind == BATCH_KIND_MATRIX else flat.copy()
    return np.asarray(arr, dtype=float), digest.decode("ascii")


# ---------------------------------------------------------------------------
# manifests and text artifacts


def write_text(path: Path, text: str) -> None:
    """Write a text artifact with unix newlines regardless of platform."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def build_manifest(
    config: ExperimentConfig,
    out_dir: Path,
    file_names: Sequence[str],
    stream_blocks: Mapping[str, int],
) -> dict[str, Any]:
    """Manifest tying every artifact to the config hash and stream blocks.

    Versions of the numeric stack are recorded so a hash mismatch on rerun
    can be attributed; the manifest itself contains no timestamps, keeping
    rerun bytes identical.
    """
    import numpy

    files = {name: sha256_file(Path(out_dir) / name) for name in sorted(file_names)}
    versions = {
        "cltlab": _package_version(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }
    try:
        import scipy

        versions["scipy"] = scipy.__version__
    except ImportError:
        pass
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "config": config.to_json_dict(),
        "config_sha256": config.digest(),
        "master_seed": config.master_seed,
        "stream_blocks": {str(k): int(v) for k, v in stream_blocks.items()},
        "versions": versions,
        "files": files,
    }


def _package_version() -> str:
    from . import __version__

    return __version__


def write_manifest(out_dir: Path, manifest: Mapping[str, Any]) -> Path:
    path = Path(out_dir) / "manifest.json"
    write_text(path, canonical_json(manifest) + "\n")
    return path


def read_manifest(out_dir: Path) -> Optional[dict[str, Any]]:
    """The manifest.json in out_dir as a dict, or None when there is none."""
    path = Path(out_dir) / "manifest.json"
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataFormatError(f"{path}: not a JSON manifest ({exc})") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: a manifest must be a JSON object")
    return doc


# ---------------------------------------------------------------------------
# distance CSV round trip (rate fitting consumes distance tables)


def read_distance_csv(path: Path) -> list[DistanceReport]:
    """Parse a distance table back into the reports that wrote it.

    The header must match the documented schema exactly; numeric fields are
    parsed as float/int and the upper-bound flag as a boolean.  The
    be_transfer column is derived from wr_value and p, so it is only checked
    to be a number.
    """
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(_io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{path}: empty distance table") from None
    if tuple(header) != DISTANCE_CSV_COLUMNS:
        raise DataFormatError(
            f"{path}: header {header!r} does not match the distance schema"
        )
    reports = []
    for line_no, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != len(header):
            raise DataFormatError(f"{path}:{line_no}: expected {len(header)} fields")
        try:
            float(rec[11])
            reports.append(
                DistanceReport(
                    model_id=rec[0],
                    n=int(rec[1]),
                    p=float(rec[2]),
                    replicates=int(rec[3]),
                    kolmogorov=float(rec[4]),
                    kolmogorov_se=float(rec[5]),
                    w1=float(rec[6]),
                    w1_se=float(rec[7]),
                    wr_r=float(rec[8]),
                    wr_value=float(rec[9]),
                    wr_is_upper_bound=rec[10] == "true",
                )
            )
        except ValueError as exc:
            raise DataFormatError(f"{path}:{line_no}: {exc}") from exc
    return reports
