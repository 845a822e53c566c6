"""Dataset manifests and synthetic validation datasets.

A manifest is a UTF-8 JSON document (manifest_version 1) listing the
images with their fixation files and distortion/complexity tags, the
models with one map file per image, and the dataset's pixels-per-degree
(which sets the density-map Gaussian width at one degree). All paths are
relative to the manifest's directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ManifestError
from ..io import read_fixations, write_fixations, write_pgm
from ..maps import (
    FWHM_TO_SIGMA,
    FixationSet,
    _frame,
    _integer,
    _items,
    _positive,
    centered_gaussian_baseline,
    check_blur_sigma,
    density_from_fixations,
    gaussian_blur,
    invert_map,
    normalize_map,
)

__all__ = [
    "COMPLEXITIES",
    "DISTORTION_LEVELS",
    "DISTORTION_TYPES",
    "BASELINE_MODELS",
    "DatasetManifest",
    "ImageEntry",
    "ModelEntry",
    "load_manifest",
    "synth_dataset",
]

MANIFEST_VERSION = 1
DISTORTION_TYPES = ("none", "blur", "jpeg", "noise")
DISTORTION_LEVELS = ("none", "low", "medium", "high")
COMPLEXITIES = ("unspecified", "easy", "medium", "hard")


@dataclass(frozen=True)
class ImageEntry:
    image_id: str
    width: int
    height: int
    fixation_file: str
    distortion_type: str = "none"
    distortion_level: str = "none"
    complexity: str = "unspecified"

    def __post_init__(self):
        for name, kind in (("image_id", str), ("width", int), ("height", int), ("fixation_file", str)):
            value = getattr(self, name)
            # json reads 32.0 as a float, and a bool is an int
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ManifestError(f"{self.image_id}: {name} must be {kind.__name__}, not {value!r}")
        if self.width < 1 or self.height < 1:
            raise ManifestError(f"{self.image_id}: bad dimensions")
        if self.distortion_type not in DISTORTION_TYPES:
            raise ManifestError(f"{self.image_id}: unknown distortion_type {self.distortion_type!r}")
        if self.distortion_level not in DISTORTION_LEVELS:
            raise ManifestError(f"{self.image_id}: unknown distortion_level {self.distortion_level!r}")
        if self.complexity not in COMPLEXITIES:
            raise ManifestError(f"{self.image_id}: unknown complexity {self.complexity!r}")


@dataclass(frozen=True)
class ModelEntry:
    model_id: str
    maps: dict[str, str]  # image_id -> map file


@dataclass(frozen=True)
class DatasetManifest:
    images: tuple[ImageEntry, ...]
    models: tuple[ModelEntry, ...]
    pixels_per_degree: float
    root: Path
    fixations: dict[str, FixationSet] = field(repr=False, default_factory=dict)

    @property
    def fwhm_px(self) -> float:
        """Density-map Gaussian FWHM: one degree of visual angle in pixels."""
        return self.pixels_per_degree

    def map_path(self, model_id: str, image_id: str) -> Path:
        model = next(m for m in self.models if m.model_id == model_id)
        return self.root / model.maps[image_id]


def _check_pixels_per_degree(ppd) -> float:
    """ppd as a plain float; refused (ValueError) unless it is a finite number > 0.

    Also refuse one whose density-map blur gaussian_blur cannot build.
    """
    ppd = _positive("pixels_per_degree", ppd)
    try:
        check_blur_sigma(ppd * FWHM_TO_SIGMA)  # the density map's blur
    except ValueError as exc:
        raise ValueError(f"pixels_per_degree {ppd!r} is too large: {exc}") from None
    return ppd


def load_manifest(path) -> DatasetManifest:
    """Load and fully validate a dataset manifest.

    Checks the schema version, each field's JSON type, the tag
    enumerations, that image and model ids are unique, that every
    referenced file exists, that every model covers every image, that
    every fixation file parses with coordinates inside its declared frame,
    and that pixels_per_degree gives a density blur gaussian_blur can build.
    Errors name the offending entry.
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ManifestError(f"{path}: the top level must be a JSON object, not {type(raw).__name__}")
    for key in ("images", "models"):
        if not isinstance(raw.get(key, []), list):
            raise ManifestError(f"{path}: {key} must be a JSON array")
    version = raw.get("manifest_version")
    if type(version) is not int or version != MANIFEST_VERSION:  # json's true == 1
        raise ManifestError(f"{path}: manifest_version must be {MANIFEST_VERSION}")
    ppd = raw.get("pixels_per_degree")
    try:
        ppd = _check_pixels_per_degree(ppd)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from None
    root = path.parent

    images = []
    seen_ids: set[str] = set()
    for entry in raw.get("images", []):
        try:
            image = ImageEntry(**entry)
        except TypeError as exc:
            raise ManifestError(f"{path}: malformed image entry {entry!r}: {exc}") from None
        if image.image_id in seen_ids:
            raise ManifestError(f"duplicate image_id {image.image_id!r}")
        seen_ids.add(image.image_id)
        images.append(image)
    if not images:
        raise ManifestError(f"{path}: manifest lists no images")

    fixations: dict[str, FixationSet] = {}
    for image in images:
        fpath = root / image.fixation_file
        if not fpath.is_file():
            raise ManifestError(f"{image.image_id}: missing fixation file {fpath}")
        try:
            fs = read_fixations(fpath, image.image_id)
        except ValueError as exc:
            raise ManifestError(f"{image.image_id}: {exc}") from None
        if fs.frame != (image.width, image.height):
            raise ManifestError(
                f"{image.image_id}: fixation frame {fs.frame} does not match "
                f"declared {image.width}x{image.height}"
            )
        fixations[image.image_id] = fs

    models = []
    for entry in raw.get("models", []):
        fields = entry if isinstance(entry, dict) else {}
        model_id, maps = fields.get("model_id"), fields.get("maps")
        if not (model_id and isinstance(model_id, str) and isinstance(maps, dict)):
            raise ManifestError(f"{path}: malformed model entry {entry!r}")
        if any(m.model_id == model_id for m in models):
            raise ManifestError(f"duplicate model_id {model_id!r}")
        for image in images:
            if image.image_id not in maps:
                raise ManifestError(f"model {model_id!r}: no map for image {image.image_id!r}")
            rel = maps[image.image_id]
            if not isinstance(rel, str):
                raise ManifestError(
                    f"model {model_id!r}: map for image {image.image_id!r} is not a path: {rel!r}"
                )
            mpath = root / rel
            if not mpath.is_file():
                raise ManifestError(f"model {model_id!r}: missing map file {mpath}")
        models.append(ModelEntry(model_id=model_id, maps=dict(maps)))
    if not models:
        raise ManifestError(f"{path}: manifest lists no models")

    return DatasetManifest(
        images=tuple(images),
        models=tuple(models),
        pixels_per_degree=ppd,
        root=root,
        fixations=fixations,
    )


def _center_biased_points(rng, n, width, height):
    sx, sy = 0.18 * width, 0.18 * height
    pts = np.empty((0, 2), dtype=np.int64)
    while pts.shape[0] < n:
        cand = np.column_stack(
            [
                np.round(rng.normal((width - 1) / 2, sx, 2 * n)),
                np.round(rng.normal((height - 1) / 2, sy, 2 * n)),
            ]
        ).astype(np.int64)
        ok = (cand[:, 0] >= 0) & (cand[:, 0] < width) & (cand[:, 1] >= 0) & (cand[:, 1] < height)
        pts = np.concatenate([pts, cand[ok]])[:n]
    return pts


def _off_center_points(rng, n, width, height):
    margin = 0.12 * min(width, height)
    exclusion = 0.22 * min(width, height)
    cx, cy = (width - 1) / 2, (height - 1) / 2
    k = int(rng.integers(1, 4))
    centers = []
    for _ in range(1000):
        if len(centers) == k:
            break
        x = rng.uniform(margin, width - 1 - margin)
        y = rng.uniform(margin, height - 1 - margin)
        if np.hypot(x - cx, y - cy) > exclusion:
            centers.append((x, y))
    else:
        raise ValueError("frame too small for off-center clusters")
    centers = np.asarray(centers)
    sigma = 0.05 * min(width, height)
    pts = np.empty((0, 2), dtype=np.int64)
    while pts.shape[0] < n:
        idx = rng.integers(0, k, 2 * (n - pts.shape[0]))
        cand = np.column_stack(
            [
                np.round(rng.normal(centers[idx, 0], sigma)),
                np.round(rng.normal(centers[idx, 1], sigma)),
            ]
        ).astype(np.int64)
        ok = (cand[:, 0] >= 0) & (cand[:, 0] < width) & (cand[:, 1] >= 0) & (cand[:, 1] < height)
        pts = np.concatenate([pts, cand[ok]])[:n]
    return pts


FIXATION_MODELS = ("center-biased", "off-center-blobs")
STRATIFY_MODES = ("none", "distortions", "complexity")


def _stratum_tags(stratify: str, index: int) -> tuple[str, str, str]:
    # stratify is one of STRATIFY_MODES, checked before anything is written
    # each vocabulary's first entry is the untagged one
    if stratify == "none":
        return DISTORTION_TYPES[0], DISTORTION_LEVELS[0], COMPLEXITIES[0]
    row, level = divmod(index % 9, 3)
    if stratify == "distortions":
        return DISTORTION_TYPES[1 + row], DISTORTION_LEVELS[1 + level], COMPLEXITIES[0]
    return DISTORTION_TYPES[1], DISTORTION_LEVELS[1 + level], COMPLEXITIES[1 + row]


BASELINE_MODELS = ("gt_copy", "center_gauss", "inverted_gt", "gt_noisy", "gt_blurred")


def _baseline_map(name, density, rng, width, height):
    if name == "gt_copy":
        return density
    if name == "center_gauss":
        return centered_gaussian_baseline(width, height, 0.25)
    if name == "inverted_gt":
        return invert_map(density)
    if name == "gt_noisy":
        return normalize_map(density + rng.uniform(0.0, 0.3, density.shape))
    if name == "gt_blurred":
        return normalize_map(gaussian_blur(density, 0.05 * min(width, height)))
    raise ValueError(f"unknown baseline model: {name}")


def synth_dataset(
    out_dir,
    num_images: int = 20,
    frame: tuple[int, int] = (256, 192),
    fixation_model: str = "center-biased",
    seed: int = 0,
    fixations_per_image: int = 40,
    pixels_per_degree: float = 8.0,
    models: tuple[str, ...] = ("gt_copy", "center_gauss"),
    stratify: str = "none",
) -> Path:
    """Write a self-contained synthetic dataset and return the manifest path.

    Fixations are drawn either from a centered Gaussian ("center-biased")
    or from 1-3 off-center clusters ("off-center-blobs"). Ground-truth
    density maps are emitted alongside, plus one prediction-map set per
    requested baseline model so the dataset is immediately evaluable.
    Regeneration with the same arguments is byte-identical.
    """
    num_images = _integer("num_images", num_images, 2)
    seed = _integer("seed", seed, 0)
    if fixation_model not in FIXATION_MODELS:
        raise ValueError(f"unknown fixation_model: {fixation_model}")
    models = _items("models", models)
    for name in models:
        if name not in BASELINE_MODELS:
            raise ValueError(f"unknown baseline model: {name}")
    # the fixation draw loops until it has points inside the frame
    width, height = _frame("frame", frame)
    fixations_per_image = _integer("fixations_per_image", fixations_per_image, 1)
    if stratify not in STRATIFY_MODES:
        raise ValueError(f"unknown stratify mode: {stratify}")
    pixels_per_degree = _check_pixels_per_degree(pixels_per_degree)
    out_dir = Path(out_dir)
    (out_dir / "fixations").mkdir(parents=True, exist_ok=True)
    (out_dir / "maps" / "gt").mkdir(parents=True, exist_ok=True)
    for name in models:
        (out_dir / "maps" / name).mkdir(parents=True, exist_ok=True)

    rng = np.random.Generator(np.random.PCG64(seed))
    images = []
    model_maps: dict[str, dict[str, str]] = {name: {} for name in models}
    for i in range(num_images):
        image_id = f"img{i:03d}"
        if fixation_model == "center-biased":
            pts = _center_biased_points(rng, fixations_per_image, width, height)
        else:
            pts = _off_center_points(rng, fixations_per_image, width, height)
        fs = FixationSet(image_id, pts, (width, height))
        write_fixations(out_dir / "fixations" / f"{image_id}.txt", fs)
        density = density_from_fixations(fs, pixels_per_degree)
        write_pgm(out_dir / "maps" / "gt" / f"{image_id}.pgm", density)
        for name in models:
            rel = f"maps/{name}/{image_id}.pgm"
            write_pgm(out_dir / rel, _baseline_map(name, density, rng, width, height))
            model_maps[name][image_id] = rel
        dtype, dlevel, complexity = _stratum_tags(stratify, i)
        images.append(
            {
                "image_id": image_id,
                "width": width,
                "height": height,
                "fixation_file": f"fixations/{image_id}.txt",
                "distortion_type": dtype,
                "distortion_level": dlevel,
                "complexity": complexity,
            }
        )

    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "pixels_per_degree": pixels_per_degree,
        "images": images,
        "models": [{"model_id": name, "maps": model_maps[name]} for name in models],
    }
    manifest_path = out_dir / "manifest.json"
    tmp = manifest_path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, manifest_path)
    return manifest_path
