"""Synthetic day/night scenes with exact ground truth.

A facade of splats is rendered from two camera paths: an arc of model
views and a query trajectory. World points sit on a jittered grid and
alternate between two roles. Anchor points are smooth bright blobs: the
detector localizes them sub-pixel at the exact projection, and they are
the only structure bright enough to survive the night map. Texture points
are discs filled from a small motif library (textures repeat across
points, as on real buildings); they carry all the appearance identity by
day and vanish completely at night. The night condition maps day pixels
through clip(p^gamma + brightness + noise), and an optional per-frame
dropout knocks whole splats out. At night, descriptors are therefore
nearly useless (every surviving blob looks the same) while the
neighborhood layout around each blob still identifies it, and dropout
gives the temporal machinery something real to reject.

The layout is fixed by module constants: a facade EXTENT wide, rendered
WIDTH x HEIGHT at FOCAL px, splats POINT_SIZE across with DEPTH_RELIEF of
depth jitter, N_MOTIFS textures, point brightness in BRIGHTNESS_LOW ..
BRIGHTNESS_HIGH over a background ramp BACKGROUND_LOW .. BACKGROUND_HIGH.
`SynthConfig` holds what callers set: the seed, the scene's sizes
(`n_points`, `n_model_images`, `n_query_frames`) and the night map
(`gamma`, `brightness`, `noise_sigma`, `dropout_rate`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
from .features import (GradientField, GrayImage, KeypointTable, attach_context,
                       bilinear_sample, compute_descriptors)
from .geometry import Intrinsics, Pose, project_many
from .model import Model3D, ModelImage, PointTable, Sequence, SequenceFrame

MOTIF_SIDE = 16
MIN_SPLAT_PX = 6.0
MAX_SPLAT_PX = 40.0
LINK_MARGIN_PX = 12.0
SPLAT_PX_PER_SCALE = 6.0

EXTENT = 4.0  # facade width in world units; camera paths scale with it
WIDTH = 320
HEIGHT = 240
FOCAL = 300.0
POINT_SIZE = 0.30  # splat diameter in world units
DEPTH_RELIEF = 0.10  # depth jitter, a fraction of EXTENT either way
N_MOTIFS = 4
BRIGHTNESS_LOW = 0.74
BRIGHTNESS_HIGH = 1.0
BACKGROUND_LOW = 0.50  # top row of the background ramp
BACKGROUND_HIGH = 0.58  # bottom row
_INTRINSICS = Intrinsics(FOCAL, FOCAL, WIDTH / 2.0, HEIGHT / 2.0, WIDTH, HEIGHT)


@dataclass(frozen=True)
class SynthConfig:
    """Scene sizes plus the photometric night transform.

    Default photometric values are the identity, so `night` equals `day`
    until a transform is configured (see `night_preset`).
    """

    seed: int = 0
    n_points: int = 200
    n_model_images: int = 10
    n_query_frames: int = 10
    gamma: float = 1.0
    brightness: float = 0.0
    noise_sigma: float = 0.0
    dropout_rate: float = 0.0

    def __post_init__(self):
        # 0^0 = 1 would light every black pixel; a negative power divides by 0
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ValueError("dropout_rate must lie in [0, 1]")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be non-negative")
        if self.n_points < 1 or self.n_model_images < 1 or self.n_query_frames < 1:
            raise ValueError("scene needs at least one point, model image, and frame")


def night_preset(seed: int = 0) -> SynthConfig:
    """The default day-to-night transform: gamma crush, dimming, sensor noise."""
    return SynthConfig(seed=seed, gamma=2.2, brightness=-0.4, noise_sigma=0.02,
                       dropout_rate=0.05)


@dataclass(frozen=True)
class SynthScene:
    model: Model3D
    day: Sequence
    night: Sequence
    config: SynthConfig


def look_at(position: np.ndarray, target: np.ndarray) -> Pose:
    """World-to-camera pose for a camera at `position` facing `target`.

    World axes: x right, y down, z toward the facade. Roll is zero, so the
    image x axis stays parallel to the world x-z plane.
    """
    position = np.asarray(position, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - position
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise DegenerateInput("camera position coincides with its target")
    z_c = forward / norm
    x_c = np.cross([0.0, 1.0, 0.0], z_c)
    x_norm = np.linalg.norm(x_c)
    if x_norm < 1e-12:
        raise DegenerateInput("camera looks straight along the vertical axis")
    x_c /= x_norm
    y_c = np.cross(z_c, x_c)
    r = np.stack([x_c, y_c, z_c])
    return Pose(r, -r @ position)


def _motif_library(rng: np.random.Generator, n: int) -> np.ndarray:
    """Smooth random textures in [0, 1], shape (n, MOTIF_SIDE, MOTIF_SIDE)."""
    coarse = rng.uniform(0.0, 1.0, size=(n, 5, 5))
    t = np.linspace(0.0, 4.0, MOTIF_SIDE)
    i0 = np.minimum(t.astype(int), 3)
    frac = t - i0
    rows = (coarse[:, i0, :] * (1.0 - frac)[None, :, None]
            + coarse[:, i0 + 1, :] * frac[None, :, None])
    out = (rows[:, :, i0] * (1.0 - frac)[None, None, :]
           + rows[:, :, i0 + 1] * frac[None, None, :])
    # rank-normalize so every motif has the same value histogram; only the
    # spatial arrangement differs between motifs
    flat = out.reshape(n, -1)
    order = np.argsort(flat, axis=1, kind="stable")
    ranks = np.empty_like(flat)
    np.put_along_axis(ranks, order,
                      np.broadcast_to(np.linspace(0.0, 1.0, flat.shape[1]),
                                      flat.shape).copy(), axis=1)
    motifs = ranks.reshape(n, MOTIF_SIDE, MOTIF_SIDE)
    # composite a small centered peak into every motif: the brightest part of
    # a surface is what survives harsh darkening, and pinning it to the splat
    # center keeps detections on the projected point day and night alike
    # (think of a lit sign: its lamp stays visible and stays put)
    yy, xx = np.mgrid[0:MOTIF_SIDE, 0:MOTIF_SIDE].astype(np.float64)
    mid = (MOTIF_SIDE - 1) / 2.0
    bump = np.exp(-((yy - mid) ** 2 + (xx - mid) ** 2) / (2.0 * 2.5 ** 2))
    return np.maximum(motifs, bump[None, :, :])


@dataclass(frozen=True)
class _World:
    points: np.ndarray       # (n, 3)
    is_anchor: np.ndarray    # (n,) bool, True for blob splats
    motif_ids: np.ndarray    # (n,)
    brightness: np.ndarray   # (n,)
    motifs: np.ndarray       # (n_motifs, 16, 16)


def _build_world(cfg: SynthConfig, rng: np.random.Generator) -> _World:
    # jittered grid over the facade keeps splats from piling up
    cols = max(1, int(round(np.sqrt(cfg.n_points * 4.0 / 3.0))))
    n_rows = (cfg.n_points + cols - 1) // cols
    half_w = 0.5 * EXTENT
    half_h = 0.36 * EXTENT
    xs = np.linspace(-half_w, half_w, cols) if cols > 1 else np.zeros(1)
    ys = np.linspace(-half_h, half_h, n_rows) if n_rows > 1 else np.zeros(1)
    gx, gy = np.meshgrid(xs, ys)
    cells = np.stack([gx.ravel(), gy.ravel()], axis=1)[:cfg.n_points]
    step_x = xs[1] - xs[0] if cols > 1 else EXTENT
    step_y = ys[1] - ys[0] if n_rows > 1 else EXTENT
    jitter = rng.uniform(-0.3, 0.3, size=cells.shape) * np.array([step_x, step_y])
    depth = rng.uniform(-DEPTH_RELIEF, DEPTH_RELIEF, size=len(cells)) * EXTENT
    points = np.column_stack([cells + jitter, depth])
    return _World(
        points=points,
        # alternate roles along the grid so anchors tile the facade evenly
        is_anchor=np.arange(len(points)) % 3 != 2,
        motif_ids=rng.integers(0, N_MOTIFS, size=len(points)),
        brightness=rng.uniform(BRIGHTNESS_LOW, BRIGHTNESS_HIGH, size=len(points)),
        motifs=_motif_library(rng, N_MOTIFS),
    )


def _model_poses(cfg: SynthConfig) -> list[Pose]:
    n = cfg.n_model_images
    xs = np.linspace(-0.35, 0.35, n) * EXTENT if n > 1 else np.zeros(1)
    poses = []
    for i, x in enumerate(xs):
        y = 0.03 * EXTENT * np.sin(2.0 * np.pi * i / max(n, 1))
        pos = np.array([x, y, -1.1 * EXTENT])
        poses.append(look_at(pos, np.zeros(3)))
    return poses


def _query_poses(cfg: SynthConfig) -> list[Pose]:
    n = cfg.n_query_frames
    ts = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    poses = []
    for t in ts:
        pos = np.array([
            (-0.18 + 0.36 * t + 0.017) * EXTENT,
            0.02 * EXTENT * np.sin(2.0 * np.pi * t),
            (-1.02 + 0.02 * np.sin(3.0 * np.pi * t)) * EXTENT,
        ])
        poses.append(look_at(pos, np.zeros(3)))
    return poses


def _render(world: _World, pose: Pose, keep: np.ndarray | None = None
            ) -> tuple[GrayImage, GrayImage, np.ndarray, np.ndarray, np.ndarray]:
    """Splat the facade into an image, and into a second one with only the
    splats that `keep` holds.

    Returns both rasters, projected centers (n, 2), splat pixel sizes (n,),
    and camera depths (n,); size is NaN for points behind the camera. Each
    splat's weight and value are computed once and composited, far to
    near, into every canvas that holds it. Without `keep` every splat is
    kept, and the second raster is the first.
    """
    uv, z = project_many(world.points, pose, _INTRINSICS)
    sizes = np.full(len(uv), np.nan)
    visible = z > 0.1 * EXTENT
    sizes[visible] = np.clip(FOCAL * POINT_SIZE / z[visible], MIN_SPLAT_PX, MAX_SPLAT_PX)

    ramp = np.linspace(BACKGROUND_LOW, BACKGROUND_HIGH, HEIGHT)
    img = np.tile(ramp[:, None], (1, WIDTH))
    canvases = [img] if keep is None else [img, img.copy()]

    order = np.argsort(-z, kind="stable")  # far first, near splats paint over
    for i in order:
        if not np.isfinite(sizes[i]):
            continue
        s = sizes[i]
        cu, cv = uv[i]
        half = s / 2.0
        x0 = max(0, int(np.floor(cu - half)))
        x1 = min(WIDTH - 1, int(np.ceil(cu + half)))
        y0 = max(0, int(np.floor(cv - half)))
        y1 = min(HEIGHT - 1, int(np.ceil(cv + half)))
        if x1 < x0 or y1 < y0:
            continue
        px = np.arange(x0, x1 + 1, dtype=np.float64)
        py = np.arange(y0, y1 + 1, dtype=np.float64)
        dx = (px - cu) / s
        dy = (py - cv) / s
        r = np.sqrt(dx[None, :] ** 2 + dy[:, None] ** 2)

        if world.is_anchor[i]:
            # smooth unit-brightness blob; wide enough that the part left
            # above the night threshold still spans the detector's smallest
            # scale, and radially symmetric so the blob center is found at
            # the exact projection day and night
            weight = np.exp(-(r / 0.25) ** 2)
            fill = weight
        else:
            # textured disc: flat core with a cosine taper to the rim
            core = 0.22
            taper = np.clip((r - core) / (0.5 - core), 0.0, 1.0)
            weight = np.cos(taper * np.pi / 2.0) ** 2
            weight[r > 0.5] = 0.0
            # the splat square spans the motif texture edge to edge
            tex = bilinear_sample(world.motifs[world.motif_ids[i]],
                                  ((dx + 0.5) * (MOTIF_SIDE - 1))[None, :],
                                  ((dy + 0.5) * (MOTIF_SIDE - 1))[:, None])
            # cubic curve: only the top texture ranks survive the night map,
            # as sparse off-center glints next to the dominant center peak,
            # so night appearance is landmark-like while day keeps full texture
            fill = world.brightness[i] * (0.45 + 0.55 * tex ** 3) * weight
        rest = 1.0 - weight
        for canvas in canvases if keep is None or keep[i] else canvases[:1]:
            patch = canvas[y0:y1 + 1, x0:x1 + 1]
            patch *= rest
            patch += fill

    rasters = [GrayImage(np.clip(c, 0.0, 1.0).astype(np.float32)) for c in canvases]
    return rasters[0], rasters[-1], uv, sizes, z


def night_transform(image: GrayImage, cfg: SynthConfig,
                    rng: np.random.Generator) -> GrayImage:
    """Apply clip(p^gamma + brightness + noise) to a raster; the noise is
    drawn from `rng`."""
    q = np.power(image.pixels, cfg.gamma) + cfg.brightness
    if cfg.noise_sigma > 0.0:
        q = q + rng.normal(0.0, cfg.noise_sigma, size=q.shape)
    return GrayImage(np.clip(q, 0.0, 1.0).astype(np.float32))


def _observations(uv: np.ndarray, sizes: np.ndarray, z: np.ndarray) -> list[int]:
    """Indices of points that land inside the frame and are not occluded:
    no nearer splat's centre lies within 0.35 of that splat's size. Only
    splats take part, so the infinite pixels of points at depth 0 never meet.
    """
    splat = np.flatnonzero(np.isfinite(sizes))
    u, v = uv[splat].T
    inside = splat[(LINK_MARGIN_PX <= u) & (u <= WIDTH - 1 - LINK_MARGIN_PX)
                   & (LINK_MARGIN_PX <= v) & (v <= HEIGHT - 1 - LINK_MARGIN_PX)]
    # (inside, splat) pairs: uv[j] - uv[i] for candidate i and splat j
    d = uv[splat][None, :, :] - uv[inside][:, None, :]
    covers = np.hypot(d[..., 0], d[..., 1]) < 0.35 * sizes[splat]
    nearer = z[splat][None, :] < z[inside][:, None]
    return inside[~(covers & nearer).any(axis=1)].tolist()


def _model_image(world: _World, pose: Pose, image_id: int) -> ModelImage:
    raster, _, uv, sizes, z = _render(world, pose)
    obs = _observations(uv, sizes, z)

    grad = GradientField(raster)
    pos = uv[obs]
    scales = sizes[obs] / SPLAT_PX_PER_SCALE
    descs = compute_descriptors(grad, pos, scales)
    kps = KeypointTable.adopt(pos, scales, np.zeros(len(obs)), descs)
    kps, dropped = attach_context(raster, kps, field=grad)
    if dropped:
        raise DegenerateInput("model keypoint lost its context region; "
                              "shrink the RoI or enlarge the frame")
    links = {k: int(obs[k]) for k in range(len(obs))}
    return ModelImage(image_id, pose, _INTRINSICS, kps, links, raster)


def synth_scene(cfg: SynthConfig) -> SynthScene:
    """Build the model and the day/night query sequences, all ground-truthed.

    Model keypoints carry contexts at the default `ContextConfig`.
    """
    rng = np.random.default_rng(cfg.seed)
    world = _build_world(cfg, rng)
    images = [_model_image(world, pose, i) for i, pose in enumerate(_model_poses(cfg))]
    model = Model3D(PointTable(np.arange(len(world.points)), world.points), images)

    day_frames = []
    night_frames = []
    for i, pose in enumerate(_query_poses(cfg)):
        frame_rng = np.random.default_rng([cfg.seed, 7, i])
        keep = None
        if cfg.dropout_rate > 0.0:
            keep = frame_rng.random(len(world.points)) >= cfg.dropout_rate
        day_raster, base, _, _, _ = _render(world, pose, keep)
        night_raster = night_transform(base, cfg, frame_rng)
        ts = float(i) / 10.0
        day_frames.append(SequenceFrame(ts, _INTRINSICS, day_raster, None, pose))
        night_frames.append(SequenceFrame(ts, _INTRINSICS, night_raster, None, pose))

    return SynthScene(model, Sequence(day_frames), Sequence(night_frames), cfg)
