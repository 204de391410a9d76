"""Deterministic REAL-media corpus: valid PNG / BMP / JPEG / GIF / WAV /
AVI / MP4 files synthesized from a seed, written once under /tmp and read
back with ``ray.data.read_binary_files``.

Unlike hash-fake payloads, these are genuinely decodable files — the
StdlibDecoder pixel/PCM kernels run for real on them (images: seeded
gradient + rectangle pattern; JPEG via the pure-numpy baseline codec in
functions/jpegcodec.py; audio: two-tone sine mix; AVI: a valid RIFF
container whose ``movi`` list carries real MJPEG frames — every frame is
a complete baseline JPEG, so frame extraction + pixel decode run for
real with zero native dependencies).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ..functions import mediacodec as mc


def gen_image(seed: int, idx: int) -> np.ndarray:
    """(H, W, 3) uint8: gradient background + seeded rectangles."""
    rng = np.random.RandomState((seed * 1_000_003 + idx) & 0x7FFFFFFF)
    h, w = int(rng.randint(48, 160)), int(rng.randint(48, 160))
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.stack(
        [
            (xx * 255 // max(w - 1, 1)).astype(np.uint8),
            (yy * 255 // max(h - 1, 1)).astype(np.uint8),
            np.full((h, w), rng.randint(0, 256), dtype=np.uint8),
        ],
        axis=2,
    )
    for _ in range(int(rng.randint(1, 5))):
        y0, x0 = int(rng.randint(0, h // 2)), int(rng.randint(0, w // 2))
        y1, x1 = y0 + int(rng.randint(4, h // 2)), x0 + int(rng.randint(4, w // 2))
        img[y0:y1, x0:x1] = rng.randint(0, 256, 3, dtype=np.uint8)
    return img


def gen_audio(seed: int, idx: int) -> tuple[np.ndarray, int]:
    """((n, 1) int16 PCM, rate): two-tone sine mix, 0.05–0.4 s."""
    rng = np.random.RandomState((seed * 2_000_003 + idx) & 0x7FFFFFFF)
    rate = 8000
    n = int(rng.randint(rate // 20, rate * 2 // 5))
    t = np.arange(n) / rate
    f1, f2 = rng.randint(100, 1200), rng.randint(100, 1200)
    wave = 0.5 * np.sin(2 * np.pi * f1 * t) + 0.3 * np.sin(2 * np.pi * f2 * t)
    return (wave * 20000).astype(np.int16)[:, None], rate


def gen_avi(seed: int, idx: int) -> bytes:
    """Valid RIFF/AVI with a real ``avih`` main header AND real MJPEG
    frames: the ``movi`` list carries 3-6 ``00dc`` chunks, each a complete
    baseline JPEG of an evolving seeded pattern (functions/jpegcodec.py) —
    demux + per-frame pixel decode are genuinely exercisable."""
    from ..functions.jpegcodec import jpeg_encode

    rng = np.random.RandomState((seed * 3_000_003 + idx) & 0x7FFFFFFF)
    n_frames = int(rng.randint(3, 7))
    base = gen_image(seed, idx)
    h, w = base.shape[:2]
    movi = bytearray(b"movi")
    for f in range(n_frames):
        frame = np.roll(base, shift=f * 7, axis=1)  # simple motion
        payload = jpeg_encode(frame, quality=85)
        movi += b"00dc" + struct.pack("<I", len(payload)) + payload
        if len(payload) & 1:
            movi += b"\x00"  # chunks are word-aligned
    avih = struct.pack(
        "<IIIIIIIIII", 33367, 0, 0, 0x10, n_frames, 0, 1, 0, w, h
    ) + b"\x00" * 16
    hdrl = b"hdrl" + b"avih" + struct.pack("<I", len(avih)) + avih
    riff_body = (
        b"AVI "
        + b"LIST" + struct.pack("<I", len(hdrl)) + hdrl
        + b"LIST" + struct.pack("<I", len(movi)) + bytes(movi)
    )
    return b"RIFF" + struct.pack("<I", len(riff_body)) + riff_body


def _bmff_box(fourcc: bytes, body: bytes) -> bytes:
    return struct.pack(">I", 8 + len(body)) + fourcc + body


def _bmff_full(fourcc: bytes, version: int, flags: int, body: bytes) -> bytes:
    return _bmff_box(fourcc, struct.pack(">I", (version << 24) | flags) + body)


_MP4_MATRIX = struct.pack(">9I", 0x00010000, 0, 0, 0, 0x00010000, 0, 0, 0, 0x40000000)


def gen_mp4(seed: int, idx: int) -> bytes:
    """Structurally valid ISO-BMFF MP4 (ftyp + mdat + moov) whose single
    video track is MJPEG: stsd carries a 'jpeg' VisualSampleEntry and every
    sample in mdat is a complete baseline JPEG (functions/jpegcodec.py), so
    mediacodec.mp4_frames demux + per-frame pixel decode run for real."""
    from ..functions.jpegcodec import jpeg_encode

    rng = np.random.RandomState((seed * 4_000_003 + idx) & 0x7FFFFFFF)
    n_frames = int(rng.randint(3, 7))
    base = gen_image(seed, idx)
    h, w = base.shape[:2]
    samples = [
        jpeg_encode(np.roll(base, shift=f * 5, axis=0), quality=85)
        for f in range(n_frames)
    ]

    ftyp = _bmff_box(b"ftyp", b"isom" + struct.pack(">I", 512) + b"isomiso2mp41")
    mdat = _bmff_box(b"mdat", b"".join(samples))
    offs = []
    pos = len(ftyp) + 8  # first sample starts right after the mdat header
    for s in samples:
        offs.append(pos)
        pos += len(s)

    entry_body = (
        b"\x00" * 6 + struct.pack(">H", 1)          # reserved + data_ref_idx
        + b"\x00" * 16                               # pre_defined / reserved
        + struct.pack(">HH", w, h)
        + struct.pack(">II", 0x00480000, 0x00480000)  # 72 dpi
        + b"\x00" * 4 + struct.pack(">H", 1)          # reserved + frame_count
        + b"\x0cMotion JPEG" + b"\x00" * 19           # 32-byte compressorname
        + struct.pack(">Hh", 24, -1)                  # depth, pre_defined
    )
    stsd = _bmff_full(b"stsd", 0, 0, struct.pack(">I", 1)
                      + _bmff_box(b"jpeg", entry_body))
    stts = _bmff_full(b"stts", 0, 0, struct.pack(">III", 1, n_frames, 1))
    stsc = _bmff_full(b"stsc", 0, 0, struct.pack(">IIII", 1, 1, n_frames, 1))
    stsz = _bmff_full(b"stsz", 0, 0, struct.pack(">II", 0, n_frames)
                      + b"".join(struct.pack(">I", len(s)) for s in samples))
    stco = _bmff_full(b"stco", 0, 0, struct.pack(">I", 1)
                      + struct.pack(">I", offs[0]))
    stbl = _bmff_box(b"stbl", stsd + stts + stsc + stsz + stco)
    vmhd = _bmff_full(b"vmhd", 0, 1, b"\x00" * 8)
    dinf = _bmff_box(b"dinf", _bmff_full(b"dref", 0, 0, struct.pack(">I", 1)
                                         + _bmff_full(b"url ", 0, 1, b"")))
    minf = _bmff_box(b"minf", vmhd + dinf + stbl)
    mdhd = _bmff_full(b"mdhd", 0, 0, struct.pack(">IIIIHH", 0, 0, 1, n_frames, 0x55C4, 0))
    hdlr = _bmff_full(b"hdlr", 0, 0, b"\x00" * 4 + b"vide" + b"\x00" * 12
                      + b"VideoHandler\x00")
    mdia = _bmff_box(b"mdia", mdhd + hdlr + minf)
    tkhd = _bmff_full(b"tkhd", 0, 7, struct.pack(">IIII", 0, 0, 1, 0)
                      + struct.pack(">I", n_frames) + b"\x00" * 8
                      + struct.pack(">HHHH", 0, 0, 0, 0) + _MP4_MATRIX
                      + struct.pack(">II", w << 16, h << 16))
    trak = _bmff_box(b"trak", tkhd + mdia)
    mvhd = _bmff_full(b"mvhd", 0, 0, struct.pack(">IIII", 0, 0, 1, n_frames)
                      + struct.pack(">IH", 0x00010000, 0x0100) + b"\x00" * 10
                      + _MP4_MATRIX + b"\x00" * 24 + struct.pack(">I", 2))
    moov = _bmff_box(b"moov", mvhd + trak)
    return ftyp + mdat + moov


def ensure_media_corpus(n: int, seed: int, root: str = "/tmp/raykg_mediagen") -> str:
    """Write ``n`` real media files (cycling png/bmp/jpg/gif/wav/avi/mp4)
    once; cached by (n, seed). Returns the directory to hand to
    read_media_files. The .done marker lives OUTSIDE the dir so
    read_binary_files never scans it."""
    # v4: + MJPEG-in-MP4 kind; v6: JPEG DCT no longer rides on BLAS, so
    # caches written by a CPU-dependent kernel are dropped (bump
    # invalidates older caches)
    out = os.path.join(root, f"v6_n{n}_s{seed}")
    done = out + ".done"
    if os.path.exists(done):
        return out
    os.makedirs(out, exist_ok=True)
    from ..functions.jpegcodec import jpeg_encode

    for i in range(n):
        kind = i % 7
        if kind == 0:
            path = os.path.join(out, f"media-{i:05d}.png")
            payload = mc.png_encode(gen_image(seed, i))
        elif kind == 1:
            path = os.path.join(out, f"media-{i:05d}.bmp")
            payload = mc.bmp_encode(gen_image(seed, i))
        elif kind == 2:
            path = os.path.join(out, f"media-{i:05d}.jpg")
            payload = jpeg_encode(gen_image(seed, i), quality=88)
        elif kind == 3:
            path = os.path.join(out, f"media-{i:05d}.gif")
            img = gen_image(seed, i)
            idx = (img[:, :, 0] >> 4).astype(np.uint8)  # 16-level luminance
            pal = np.stack([np.arange(16) * 17] * 3, axis=1).astype(np.uint8)
            payload = mc.gif_encode(idx, pal)
        elif kind == 4:
            path = os.path.join(out, f"media-{i:05d}.wav")
            samples, rate = gen_audio(seed, i)
            payload = mc.wav_encode(samples, rate)
        elif kind == 5:
            path = os.path.join(out, f"media-{i:05d}.avi")
            payload = gen_avi(seed, i)
        else:
            path = os.path.join(out, f"media-{i:05d}.mp4")
            payload = gen_mp4(seed, i)
        with open(path, "wb") as f:
            f.write(payload)
    with open(done, "w") as f:
        f.write("ok")
    return out
