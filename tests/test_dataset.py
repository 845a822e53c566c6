import json

import numpy as np
import pytest

from saleval import maps
from saleval.errors import ManifestError
from saleval.harness import dataset, load_manifest, synth_dataset
from saleval.io import read_pgm
from saleval.shuffle import build_shuffle_bank


def _file_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_then_load_round_trip(tmp_path):
    path = synth_dataset(tmp_path / "ds", num_images=4, frame=(48, 36), seed=1,
                         fixations_per_image=12)
    manifest = load_manifest(path)
    assert len(manifest.images) == 4
    assert {m.model_id for m in manifest.models} == {"gt_copy", "center_gauss"}
    assert manifest.fwhm_px == 8.0
    # bank buildable from the loaded fixations
    bank = build_shuffle_bank(list(manifest.fixations.values()), (48, 36))
    assert len(bank.entries) == 4
    # maps load and are valid normalized maps
    m = read_pgm(manifest.map_path("gt_copy", "img000"))
    assert m.shape == (36, 48)
    assert 0 <= m.min() and m.max() <= 1


def test_synth_deterministic_bytes(tmp_path):
    synth_dataset(tmp_path / "a", num_images=3, frame=(40, 30), seed=9)
    synth_dataset(tmp_path / "b", num_images=3, frame=(40, 30), seed=9)
    a = _file_bytes(tmp_path / "a")
    b = _file_bytes(tmp_path / "b")
    assert list(a) == list(b)
    for k in a:
        assert a[k] == b[k], k


def test_synth_center_biased_centroid(tmp_path):
    path = synth_dataset(tmp_path / "ds", num_images=20, frame=(64, 48), seed=2,
                         fixations_per_image=30)
    manifest = load_manifest(path)
    pts = np.concatenate([fs.points for fs in manifest.fixations.values()])
    cx, cy = pts[:, 0].mean(), pts[:, 1].mean()
    assert abs(cx - 31.5) < 0.05 * 64
    assert abs(cy - 23.5) < 0.05 * 48


def test_synth_off_center_avoids_middle(tmp_path):
    path = synth_dataset(tmp_path / "ds", num_images=10, frame=(64, 48), seed=3,
                         fixation_model="off-center-blobs", fixations_per_image=25)
    manifest = load_manifest(path)
    # per image, the fixation centroid should sit away from the frame center
    for fs in manifest.fixations.values():
        cx, cy = fs.points[:, 0].mean(), fs.points[:, 1].mean()
        assert np.hypot(cx - 31.5, cy - 23.5) > 0.1 * 48


def test_synth_distortion_grid_stratification(tmp_path):
    path = synth_dataset(tmp_path / "ds", num_images=54, frame=(32, 24), seed=4,
                         fixations_per_image=8, stratify="distortions")
    manifest = load_manifest(path)
    cells = {}
    for im in manifest.images:
        cells[(im.distortion_type, im.distortion_level)] = cells.get(
            (im.distortion_type, im.distortion_level), 0
        ) + 1
    assert len(cells) == 9
    assert set(cells.values()) == {6}


def test_synth_rejects_bad_args(tmp_path):
    with pytest.raises(ValueError):
        synth_dataset(tmp_path / "x", num_images=1)
    with pytest.raises(ValueError):
        synth_dataset(tmp_path / "x", fixation_model="spiral")
    with pytest.raises(ValueError):
        synth_dataset(tmp_path / "x", models=("nonsense",))
    for ppd in (0, -3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="pixels_per_degree"):
            synth_dataset(tmp_path / "x", pixels_per_degree=ppd)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("frame", [(0, 12), (16, 0), (-1, -1)])
def test_synth_refuses_a_frame_below_1x1_before_writing(tmp_path, monkeypatch, frame):
    # the fixation draw never ends on an empty frame; fail fast if it is reached
    monkeypatch.setattr(dataset, "_center_biased_points", lambda *a: pytest.fail("draw started"))
    with pytest.raises(ValueError, match="at least 1x1"):
        synth_dataset(tmp_path / "x", frame=frame)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"fixations_per_image": 0}, "fixations_per_image must be >= 1"),
        ({"fixations_per_image": -3}, "fixations_per_image must be >= 1"),
        ({"stratify": "bogus"}, "unknown stratify mode"),
    ],
)
def test_synth_refuses_no_fixations_or_an_unknown_stratify_before_writing(tmp_path, kwargs, message):
    with pytest.raises(ValueError, match=message):
        synth_dataset(tmp_path / "x", num_images=2, frame=(16, 12), **kwargs)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"num_images": 2.5}, "num_images"),
        ({"num_images": True}, "num_images"),
        ({"frame": (32.5, 24)}, "frame width"),
        ({"frame": (32, "24")}, "frame height"),
        ({"frame": (32, 24, 1)}, "frame"),
        ({"frame": 32}, "frame"),
        ({"fixations_per_image": 2.5}, "fixations_per_image"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"models": "gt_copy"}, "models"),  # was read per character
        ({"models": 5}, "models"),
    ],
)
def test_synth_refuses_malformed_library_inputs_before_writing(tmp_path, kwargs, field):
    with pytest.raises(ValueError, match=field):
        synth_dataset(tmp_path / "x", **{"num_images": 2, "frame": (16, 12), **kwargs})
    assert not (tmp_path / "x").exists()


def test_synth_takes_numpy_integers_and_a_list_of_models(tmp_path):
    path = synth_dataset(tmp_path / "a", num_images=np.int64(2), frame=(np.int32(16), 12),
                         seed=np.uint8(5), fixations_per_image=np.int64(6), models=["gt_copy"])
    synth_dataset(tmp_path / "b", num_images=2, frame=(16, 12), seed=5, fixations_per_image=6,
                  models=("gt_copy",))
    assert _file_bytes(tmp_path / "a") == _file_bytes(tmp_path / "b")
    assert load_manifest(path).images[0].width == 16


def test_manifest_rejects_out_of_frame_fixation(tmp_path):
    path = synth_dataset(tmp_path / "ds", num_images=2, frame=(16, 12), seed=5,
                         fixations_per_image=4)
    fix_file = tmp_path / "ds" / "fixations" / "img000.txt"
    fix_file.write_text("16,12\n999,0\n")
    with pytest.raises(ManifestError, match="img000"):
        load_manifest(path)


def test_manifest_rejects_missing_map(tmp_path):
    path = synth_dataset(tmp_path / "ds", num_images=2, frame=(16, 12), seed=6,
                         fixations_per_image=4)
    (tmp_path / "ds" / "maps" / "gt_copy" / "img001.pgm").unlink()
    with pytest.raises(ManifestError, match="gt_copy"):
        load_manifest(path)


def test_manifest_rejects_bad_tags(tmp_path):
    path = synth_dataset(tmp_path / "ds", num_images=2, frame=(16, 12), seed=7,
                         fixations_per_image=4)
    raw = json.loads(path.read_text())
    raw["images"][0]["distortion_type"] = "sepia"
    path.write_text(json.dumps(raw))
    with pytest.raises(ManifestError, match="distortion_type"):
        load_manifest(path)


@pytest.mark.parametrize("version", [99, True, 1.0, "1"])
def test_manifest_rejects_wrong_version(tmp_path, version):
    path = synth_dataset(tmp_path / "ds", num_images=2, frame=(16, 12), seed=8,
                         fixations_per_image=4)
    raw = json.loads(path.read_text())
    raw["manifest_version"] = version
    path.write_text(json.dumps(raw))
    with pytest.raises(ManifestError, match="manifest_version"):
        load_manifest(path)


@pytest.mark.parametrize(
    "ppd",
    ["Infinity", "-Infinity", "NaN", "true", "0", "-1", pytest.param("1" + "0" * 400, id="10**400")],
)
def test_manifest_rejects_bad_pixels_per_degree(tmp_path, ppd):
    path = synth_dataset(tmp_path / "ds", num_images=2, frame=(16, 12), seed=8,
                         fixations_per_image=4)
    raw = json.loads(path.read_text())
    raw["pixels_per_degree"] = "PPD"
    path.write_text(json.dumps(raw).replace('"PPD"', ppd))
    with pytest.raises(ManifestError, match="pixels_per_degree"):
        load_manifest(path)


def test_manifest_refuses_a_density_blur_too_wide_to_build(tmp_path, monkeypatch):
    path = synth_dataset(tmp_path / "ds", num_images=2, frame=(16, 12), seed=8,
                         fixations_per_image=4)
    raw = json.loads(path.read_text())
    raw["pixels_per_degree"] = 1e12
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(maps, "_gaussian_kernel", lambda sigma: pytest.fail("kernel built"))
    with pytest.raises(ManifestError, match="pixels_per_degree"):
        load_manifest(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw.update(images={"img000": {}}), "images must be a JSON array"),
        (lambda raw: raw.update(models="gt_copy"), "models must be a JSON array"),
        (lambda raw: raw["images"][0].update(image_id=0), "image_id must be str, not 0"),
        (lambda raw: raw["images"][0].update(fixation_file=3), "fixation_file must be str, not 3"),
        (lambda raw: raw["images"][0].update(height=True), "img000: height must be int, not True"),
        (lambda raw: raw["models"][0].update(model_id=5), "malformed model entry"),
        # two models' maps would be scored and aggregated under one id
        (lambda raw: raw["models"][1].update(model_id="gt_copy"), "duplicate model_id 'gt_copy'"),
    ],
    ids=["images-object", "models-string", "int-image-id", "int-fixation-file", "bool-height", "int-model-id",
         "duplicate-model-id"],
)
def test_manifest_refuses_a_malformed_field(tmp_path, edit, message):
    path = synth_dataset(tmp_path / "ds", num_images=2, frame=(16, 12), seed=8,
                         fixations_per_image=4)
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))
    with pytest.raises(ManifestError, match=message):
        load_manifest(path)


def test_manifest_missing_file(tmp_path):
    with pytest.raises(ManifestError, match="not found"):
        load_manifest(tmp_path / "nope.json")


def test_gt_maps_written_and_match_density(tmp_path):
    from saleval.maps import density_from_fixations

    path = synth_dataset(tmp_path / "ds", num_images=2, frame=(24, 18), seed=10,
                         fixations_per_image=6, pixels_per_degree=4.0)
    manifest = load_manifest(path)
    on_disk = read_pgm(tmp_path / "ds" / "maps" / "gt" / "img000.pgm")
    rebuilt = density_from_fixations(manifest.fixations["img000"], 4.0)
    assert np.abs(on_disk - rebuilt).max() <= 0.5 / 65535 + 1e-9
