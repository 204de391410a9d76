"""Multimodal queries over a deterministic corpus of real media files
(sources/mediagen.py), decoded by the pure-numpy codecs in
functions/mediacodec.py.

Each query is declared in the registry (pipelines/registry.py) next to its
function. Decoded pixels and PCM have no SQL twin, so every oracle here is a
frozen golden.
"""

from __future__ import annotations

import pandas as pd

from .benchqueries import _CFG
from .registry import register

_MEDIA = ("decoded and re-encoded media bytes have no SQL twin; the frozen "
          "pipeline output pins determinism")


def _read_media(n: int = 500):
    """Deterministic REAL media corpus (valid PNG/BMP/WAV/AVI files under
    /tmp; sources/mediagen.py) → (media_id, kind, payload) Dataset with
    path-relative ids."""
    import os

    from docprocai_service_ray.sources.mediagen import ensure_media_corpus
    from docprocai_service_ray.stages.multimodal import read_media_files

    media_dir = ensure_media_corpus(n, _CFG.seed)
    media = read_media_files(media_dir)

    def _rel_id(batch):
        import pyarrow as pa

        ids = [os.path.basename(p) for p in batch["media_id"].to_pylist()]
        return batch.set_column(
            batch.schema.get_field_index("media_id"), "media_id",
            pa.array(ids, pa.string()),
        )

    return media.map_batches(_rel_id, batch_format="pyarrow")


@register("media_features", golden=_MEDIA)
def _media_features(sf_dir: str):
    """Multimodal path over REAL FILES with REAL decode: valid PNG/BMP/WAV/
    AVI files read via ``ray.data.read_binary_files`` and decoded by the
    pure-numpy StdlibDecoder (actual pixels / PCM, incl. baseline JPEG via
    functions/jpegcodec.py and MJPEG AVI frame decode — stages/
    multimodal.py, functions/mediacodec.py). Only native-only codecs
    (H.264/VP9) remain stubbed."""
    from docprocai_service_ray.stages.multimodal import (
        StdlibDecoder,
        extract_media_features,
    )

    out = extract_media_features(
        _read_media(500), feature_dim=16, batch_size=64,
        decoder_factory=StdlibDecoder,
    )
    return out.select_columns(["media_id", "kind", "width", "height", "n_frames", "n_bytes"])


@register("media_thumbnails", golden=_MEDIA)
def _media_thumbnails(sf_dir: str):
    """Thumbnail render + image re-encode (M2/M9 analog): decode PNG/BMP
    pixels, block-mean downsample to ≤32px, re-encode as PNG. Returns
    metadata + a content hash of the thumbnail bytes (deterministic)."""
    import hashlib

    from docprocai_service_ray.stages.multimodal import render_thumbnails

    thumbs = render_thumbnails(_read_media(500), max_px=32, batch_size=64)

    def digest(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "media_id": df["media_id"],
                "thumb_w": df["thumb_w"].astype("int32"),
                "thumb_h": df["thumb_h"].astype("int32"),
                "thumb_md5": [hashlib.md5(b).hexdigest() for b in df["thumb"]],
            }
        )

    return thumbs.map_batches(digest, batch_format="pandas")


@register("media_frames", golden=_MEDIA)
def _media_frames(sf_dir: str):
    """Video frame extraction (reference VideoProcessor.extract_frames
    analog): demux MJPEG AVIs, decode every 2nd frame to pixels, re-encode
    PNG; returns metadata + a content hash per frame (deterministic)."""
    import hashlib

    from docprocai_service_ray.stages.multimodal import sample_video_frames

    frames = sample_video_frames(_read_media(500), every_k=2, batch_size=64)

    def digest(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "media_id": df["media_id"],
                "frame_idx": df["frame_idx"].astype("int32"),
                "frame_w": df["frame_w"].astype("int32"),
                "frame_h": df["frame_h"].astype("int32"),
                "frame_md5": [hashlib.md5(b).hexdigest() for b in df["frame"]],
            }
        )

    return frames.map_batches(digest, batch_format="pandas")
