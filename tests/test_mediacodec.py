"""Pure-stdlib media codecs (functions/mediacodec.py) and the real-decode
multimodal path (StdlibDecoder, render_thumbnails)."""

from __future__ import annotations

import os
import pathlib
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from docprocai_service_ray.functions import mediacodec as mc
from docprocai_service_ray.sources.mediagen import (
    _bmff_box,
    _bmff_full,
    ensure_media_corpus,
    gen_audio,
    gen_avi,
    gen_image,
    gen_mp4,
)
from docprocai_service_ray.stages.multimodal import StdlibDecoder


class TestCodecRoundTrips:
    def test_png_rgb(self):
        img = gen_image(42, 0)
        assert np.array_equal(mc.png_decode(mc.png_encode(img)), img)

    def test_png_gray_and_rgba(self):
        img = gen_image(42, 1)
        gray = img[:, :, 0]
        assert np.array_equal(mc.png_decode(mc.png_encode(gray)), gray)
        rgba = np.dstack([img, np.full(img.shape[:2], 7, np.uint8)])
        assert np.array_equal(mc.png_decode(mc.png_encode(rgba)), rgba)

    def test_png_dims_without_decode(self):
        img = gen_image(42, 2)
        assert mc.png_dims(mc.png_encode(img)) == (img.shape[1], img.shape[0])

    def test_png_all_five_filters_decode(self):
        """Decode a PNG whose five scanlines use filter types 0–4 (our
        encoder only emits 0; foreign PNGs use all of them)."""
        rng = np.random.RandomState(0)
        src = rng.randint(0, 256, (5, 7, 3), dtype=np.uint8)
        ch, stride = 3, 7 * 3

        def filt(y, ftype):
            line = src[y].reshape(-1).astype(int)
            prev = src[y - 1].reshape(-1).astype(int) if y > 0 else np.zeros(stride, int)
            out = np.zeros(stride, int)
            for x in range(stride):
                a = line[x - ch] if x >= ch else 0
                b = prev[x]
                c = prev[x - ch] if x >= ch else 0
                if ftype == 0:
                    out[x] = line[x]
                elif ftype == 1:
                    out[x] = (line[x] - a) % 256
                elif ftype == 2:
                    out[x] = (line[x] - b) % 256
                elif ftype == 3:
                    out[x] = (line[x] - ((a + b) >> 1)) % 256
                else:
                    p = a + b - c
                    pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
                    out[x] = (line[x] - pred) % 256
            return out

        raw = b"".join(
            bytes([f]) + bytes(filt(y, f).astype(np.uint8)) for y, f in enumerate(range(5))
        )

        def chunk(tag, body):
            return (
                struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)
            )

        png = (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", 7, 5, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw))
            + chunk(b"IEND", b"")
        )
        assert np.array_equal(mc.png_decode(png), src)

    def test_bmp(self):
        img = gen_image(7, 3)
        assert np.array_equal(mc.bmp_decode(mc.bmp_encode(img)), img)

    def test_wav(self):
        samples, rate = gen_audio(42, 0)
        s2, r2 = mc.wav_decode(mc.wav_encode(samples, rate))
        assert r2 == rate and np.array_equal(s2, samples)

    def test_avi_probe(self):
        w, h, frames = mc.avi_probe(gen_avi(42, 0))
        assert w > 0 and h > 0 and frames > 0

    def test_jpeg_gif_header_dims(self):
        jpg = (
            b"\xff\xd8"
            + b"\xff\xe0" + (16).to_bytes(2, "big") + b"JFIF\x00" + b"\x00" * 9
            + b"\xff\xc0" + (17).to_bytes(2, "big") + b"\x08"
            + (240).to_bytes(2, "big") + (320).to_bytes(2, "big") + b"\x03" + b"\x00" * 9
        )
        assert mc.jpeg_dims(jpg) == (320, 240)
        gif = b"GIF89a" + struct.pack("<HH", 64, 48) + b"\x00" * 3
        assert mc.gif_dims(gif) == (64, 48)

    def test_garbage_rejected(self):
        for fn in (mc.png_decode, mc.bmp_decode, mc.jpeg_dims, mc.gif_dims, mc.avi_probe):
            with pytest.raises(ValueError):
                fn(b"not a media file at all")


class TestKernels:
    def test_block_mean_resize_exact_on_constant(self):
        img = np.full((40, 60, 3), 200, np.uint8)
        out = mc.block_mean_resize(img, 10, 15)
        assert out.shape == (10, 15, 3) and (out == 200).all()

    def test_block_mean_resize_preserves_mean(self):
        img = gen_image(1, 1)
        out = mc.block_mean_resize(img, 8, 8)
        assert abs(float(out.mean()) - float(img.mean())) < 8.0

    def test_features_are_unit_norm(self):
        img = gen_image(2, 2)
        f = mc.gray_histogram_feature(img, 16)
        assert f.shape == (16,) and abs(np.linalg.norm(f) - 1.0) < 1e-5
        samples, _ = gen_audio(2, 2)
        a = mc.audio_band_feature(samples, 16)
        assert a.shape == (16,) and abs(np.linalg.norm(a) - 1.0) < 1e-5


class TestStdlibDecoder:
    def test_dispatch_by_magic_bytes(self):
        d = StdlibDecoder(16)
        img = gen_image(5, 5)
        w, h, nf, feat = d.decode(mc.png_encode(img), "image")
        assert (w, h, nf) == (img.shape[1], img.shape[0], 1)
        # feature comes from REAL pixels: identical image → identical feature
        assert np.array_equal(feat, mc.gray_histogram_feature(img, 16))
        w2, h2, _, _ = d.decode(mc.bmp_encode(img), "image")
        assert (w2, h2) == (w, h)
        samples, rate = gen_audio(5, 5)
        ch_, rate_, nframes, afeat = d.decode(mc.wav_encode(samples, rate), "audio")
        assert ch_ == 1 and rate_ == rate and nframes == len(samples)
        assert np.array_equal(afeat, mc.audio_band_feature(samples, 16))
        av_w, av_h, av_f, _ = d.decode(gen_avi(5, 5), "video")
        assert av_w > 0 and av_f > 0

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            StdlibDecoder(8).decode(b"<html>not media</html>", "image")


def _files(d: str) -> dict[str, bytes]:
    return {name: pathlib.Path(d, name).read_bytes()
            for name in sorted(os.listdir(d))}


def test_concurrent_cold_start_writes_each_file_once(tmp_path):
    """Two processes cold-start the same (n, seed) corpus at once: the
    directory lock lets one write while the other waits, and both see
    the bytes a single process writes."""
    code = ("import sys\n"
            "from docprocai_service_ray.sources.mediagen import "
            "ensure_media_corpus\n"
            "print(ensure_media_corpus(14, 9, root=sys.argv[1]))\n")
    shared = str(tmp_path / "shared")
    repo = pathlib.Path(__file__).resolve().parents[1]
    procs = [subprocess.Popen([sys.executable, "-c", code, shared], cwd=repo,
                              stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    dirs = {p.communicate(timeout=300)[0].strip() for p in procs}
    assert [p.returncode for p in procs] == [0, 0]
    single = ensure_media_corpus(14, 9, root=str(tmp_path / "single"))
    (d,) = dirs
    assert len(_files(d)) == 14
    assert _files(d) == _files(single)


class TestRealMediaPipeline:
    def test_features_and_thumbnails_over_real_files(self, ray_session, tmp_path):
        from docprocai_service_ray.stages.multimodal import (
            StdlibDecoder,
            extract_media_features,
            read_media_files,
            render_thumbnails,
        )

        d = ensure_media_corpus(24, 123, root=str(tmp_path))
        media = read_media_files(d)
        feats = extract_media_features(
            media, feature_dim=8, decoder_factory=StdlibDecoder, concurrency=1
        ).take_all()
        assert len(feats) == 24
        by_kind = {r["kind"] for r in feats}
        assert by_kind == {"image", "audio", "video"}
        for r in feats:
            if r["kind"] == "audio":
                assert r["height"] == 8000 and r["n_frames"] > 100  # rate, PCM frames
            else:
                assert r["width"] > 0 and r["height"] > 0

        thumbs = render_thumbnails(read_media_files(d), max_px=16, concurrency=1).take_all()
        # every pixel-bearing kind renders: png + bmp + jpg + gif + avi/mp4
        # first frame (4+4+4+3+3+3 of the 24 cycling files); only wav skips
        assert len(thumbs) == 21
        for t in thumbs:
            assert max(t["thumb_w"], t["thumb_h"]) <= 16
            back = mc.png_decode(t["thumb"])  # thumbnails are valid PNGs
            assert back.shape[0] == t["thumb_h"] and back.shape[1] == t["thumb_w"]


class TestJpegCodec:
    """Pure-numpy baseline JPEG (functions/jpegcodec.py, T.81): lossy but
    bounded round-trip error, exact dimensions, gray + color, odd sizes."""

    def test_roundtrip_color_bounded_error(self):
        from docprocai_service_ray.functions.jpegcodec import (
            jpeg_decode,
            jpeg_encode,
        )

        img = gen_image(11, 4)
        enc = jpeg_encode(img, quality=90)
        assert enc[:2] == b"\xff\xd8" and enc[-2:] == b"\xff\xd9"
        dec = jpeg_decode(enc)
        assert dec.shape == img.shape and dec.dtype == np.uint8
        err = np.abs(dec.astype(int) - img.astype(int))
        assert err.mean() < 4.0  # lossy, but must be a faithful decode

    def test_roundtrip_gray_and_odd_dims(self):
        from docprocai_service_ray.functions.jpegcodec import (
            jpeg_decode,
            jpeg_encode,
        )

        g = gen_image(3, 9)[:45, :61, 0]
        dec = jpeg_decode(jpeg_encode(g, quality=92))
        assert dec.shape == g.shape
        assert np.abs(dec.astype(int) - g.astype(int)).mean() < 4.0

    def test_header_dims_agree_with_decoder(self):
        from docprocai_service_ray.functions.jpegcodec import jpeg_encode

        img = gen_image(8, 8)
        enc = jpeg_encode(img, quality=80)
        assert mc.jpeg_dims(enc) == (img.shape[1], img.shape[0])

    def test_deterministic(self):
        from docprocai_service_ray.functions.jpegcodec import jpeg_encode

        img = gen_image(6, 6)
        assert jpeg_encode(img, 85) == jpeg_encode(img, 85)


class TestGifCodec:
    def test_roundtrip_exact(self):
        rng = np.random.RandomState(4)
        pal = rng.randint(0, 256, (8, 3)).astype(np.uint8)
        idx = rng.randint(0, 8, (23, 31)).astype(np.uint8)
        gif = mc.gif_encode(idx, pal)
        assert mc.gif_dims(gif) == (31, 23)
        assert np.array_equal(mc.gif_decode(gif), pal[idx])

    def test_decoder_uses_real_gif_pixels(self):
        img = gen_image(13, 13)
        idx = (img[:, :, 0] >> 4).astype(np.uint8)
        pal = np.stack([np.arange(16) * 17] * 3, axis=1).astype(np.uint8)
        gif = mc.gif_encode(idx, pal)
        d = StdlibDecoder(16)
        w, h, nf, feat = d.decode(gif, "image")
        assert (w, h, nf) == (img.shape[1], img.shape[0], 1)
        want = mc.gray_histogram_feature(pal[idx], 16)
        assert np.allclose(feat, want)


class TestAviFrames:
    def test_mjpeg_demux_and_decode(self):
        from docprocai_service_ray.functions.jpegcodec import jpeg_decode

        avi = gen_avi(42, 1)
        frames = mc.avi_frames(avi)
        w, h, nf = mc.avi_probe(avi)
        assert len(frames) == nf >= 3
        img0 = jpeg_decode(frames[0])
        assert img0.shape[:2] == (h, w)
        # distinct frames: the synthetic pattern shifts per frame
        img1 = jpeg_decode(frames[1])
        assert not np.array_equal(img0, img1)

    def test_decoder_uses_real_frame_pixels(self):
        d = StdlibDecoder(16)
        avi = gen_avi(9, 2)
        w, h, nf, feat = d.decode(avi, "video")
        pw, ph, pnf = mc.avi_probe(avi)
        assert (w, h, nf) == (pw, ph, pnf)
        # feature equals mean pixel histogram of sampled frames, not bytes
        from docprocai_service_ray.functions.jpegcodec import jpeg_decode

        jfs = mc.avi_frames(avi)
        picks = jfs[:: max(1, len(jfs) // 3)][:3]
        want = np.mean(
            [mc.gray_histogram_feature(jpeg_decode(f), 16) for f in picks], axis=0
        ).astype(np.float32)
        assert np.allclose(feat, want)

    def test_frame_sampler_stage(self, ray_session, tmp_path):
        import ray.data as rd

        from docprocai_service_ray.stages.multimodal import (
            read_media_files,
            sample_video_frames,
        )

        d = ensure_media_corpus(20, 77, root=str(tmp_path))
        frames = sample_video_frames(
            read_media_files(d), every_k=2, concurrency=1
        ).take_all()
        assert len(frames) > 0
        for r in frames:
            assert r["frame_idx"] % 2 == 0
            img = mc.png_decode(r["frame"])
            assert img.shape[:2] == (r["frame_h"], r["frame_w"])

    def test_jpeg_thumbnails_render(self, ray_session, tmp_path):
        from docprocai_service_ray.stages.multimodal import (
            read_media_files,
            render_thumbnails,
        )

        d = ensure_media_corpus(20, 78, root=str(tmp_path))
        thumbs = render_thumbnails(
            read_media_files(d), max_px=32, concurrency=1
        ).take_all()
        # of 20 cycling files only the 3 wav rows skip: png(3) + bmp(3) +
        # jpg(3) + gif(3) + wav(3, skipped) + avi(3) + mp4(2) first frames
        assert len(thumbs) == 17
        for t in thumbs:
            assert max(t["thumb_w"], t["thumb_h"]) <= 32


class TestMp4Frames:
    """ISO-BMFF sample-table demux (mediacodec.mp4_frames/mp4_probe)."""

    def test_mjpeg_demux_and_decode(self):
        from docprocai_service_ray.functions.jpegcodec import jpeg_decode

        p = gen_mp4(42, 1)
        w, h, nf, codec = mc.mp4_probe(p)
        frames = mc.mp4_frames(p)
        assert codec == b"jpeg" and len(frames) == nf >= 3
        img0 = jpeg_decode(frames[0])
        assert img0.shape[:2] == (h, w)
        img1 = jpeg_decode(frames[1])
        assert not np.array_equal(img0, img1)  # pattern shifts per frame

    def test_multi_chunk_and_moov_first_layout(self):
        """The parser must follow stsc runs across multiple chunks and must
        not assume mdat precedes moov (our generator's layout)."""
        samples = [bytes([i]) * (10 + i) for i in range(5)]
        # chunks: [s0, s1], [s2, s3], [s4] — two stsc runs
        chunks = [samples[0] + samples[1], samples[2] + samples[3], samples[4]]
        entry_body = (
            b"\x00" * 6 + struct.pack(">H", 1) + b"\x00" * 16
            + struct.pack(">HH", 8, 8) + struct.pack(">II", 0, 0)
            + b"\x00" * 4 + struct.pack(">H", 1) + b"\x00" * 32
            + struct.pack(">Hh", 24, -1)
        )
        stsd = _bmff_full(b"stsd", 0, 0, struct.pack(">I", 1)
                          + _bmff_box(b"raw ", entry_body))
        stsc = _bmff_full(b"stsc", 0, 0, struct.pack(">I", 2)
                          + struct.pack(">III", 1, 2, 1)
                          + struct.pack(">III", 3, 1, 1))
        stsz = _bmff_full(b"stsz", 0, 0, struct.pack(">II", 0, 5)
                          + b"".join(struct.pack(">I", len(s)) for s in samples))
        ftyp = _bmff_box(b"ftyp", b"isom" + struct.pack(">I", 512))
        # moov size depends on stco which depends only on counts — build
        # with placeholder offsets first to learn the moov length
        def build(offsets):
            stco = _bmff_full(b"stco", 0, 0, struct.pack(">I", 3)
                              + b"".join(struct.pack(">I", o) for o in offsets))
            stbl = _bmff_box(b"stbl", stsd + stsc + stsz + stco)
            hdlr = _bmff_full(b"hdlr", 0, 0, b"\x00" * 4 + b"vide"
                              + b"\x00" * 12 + b"X\x00")
            minf = _bmff_box(b"minf", stbl)
            mdia = _bmff_box(b"mdia", hdlr + minf)
            trak = _bmff_box(b"trak", mdia)
            return _bmff_box(b"moov", trak)
        moov_len = len(build([0, 0, 0]))
        base = len(ftyp) + moov_len + 8  # mdat body starts here
        offs = [base, base + len(chunks[0]), base + len(chunks[0]) + len(chunks[1])]
        data = ftyp + build(offs) + _bmff_box(b"mdat", b"".join(chunks))
        assert mc.mp4_frames(data) == samples
        assert mc.mp4_probe(data) == (8, 8, 5, b"raw ")

    def test_decoder_and_stages_handle_mp4(self):
        d = StdlibDecoder(16)
        p = gen_mp4(7, 3)
        w, h, nf, feat = d.decode(p, "video")
        pw, ph, pnf, _codec = mc.mp4_probe(p)
        assert (w, h, nf) == (pw, ph, pnf)
        from docprocai_service_ray.functions.jpegcodec import jpeg_decode

        jfs = mc.mp4_frames(p)
        picks = jfs[:: max(1, len(jfs) // 3)][:3]
        want = np.mean(
            [mc.gray_histogram_feature(jpeg_decode(f), 16) for f in picks], axis=0
        ).astype(np.float32)
        assert np.allclose(feat, want)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            mc.mp4_probe(b"\x00" * 32)


class TestDemuxFuzz:
    """Container demuxers must terminate and fail cleanly (ValueError or
    empty result) on arbitrary bytes — corrupt size fields must not hang,
    mis-slice, or raise anything unexpected."""

    def test_mp4_and_avi_on_random_bytes(self):
        rng = np.random.RandomState(0)
        for n in (0, 7, 64, 4096):
            for _ in range(20):
                blob = rng.bytes(n)
                for prefix in (b"", b"\x00\x00\x00\x20ftyp", b"RIFF\x10\x00\x00\x00AVI "):
                    data = prefix + blob
                    try:
                        mc.mp4_frames(data)
                        mc.mp4_probe(data)
                    except ValueError:
                        pass
                    try:
                        mc.avi_frames(data)
                        mc.avi_probe(data)
                    except ValueError:
                        pass

    def test_truncated_real_mp4(self):
        p = gen_mp4(1, 1)
        for cut in (4, 9, len(p) // 3, len(p) - 3):
            try:
                frames = mc.mp4_frames(p[:cut])
                assert isinstance(frames, list)  # may be empty/partial
            except ValueError:
                pass
