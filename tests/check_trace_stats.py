#!/usr/bin/env python3
"""Exit-code and output contract of `perturb-trace stats` on binary traces.

Given a text trace, builds three binary fixtures from it and checks:

  * v2 (CRC-framed, read chunk by chunk): exit 0, output identical to
    `perturb-trace info` on the same file, no salvage line;
  * torn v2 (cut inside the event chunks): exit 0 and a "salvage:" line
    reporting the recovered prefix;
  * v1 (legacy unframed, loaded whole): exit 0, output identical to the
    v2 file's.

Usage:
  tests/check_trace_stats.py <perturb-trace> <trace.ptt> <work-dir>
"""

import os
import struct
import subprocess
import sys


def run(tool, *args):
    proc = subprocess.run([tool, *args], capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def fail(msg):
    print(f"check_trace_stats: {msg}", file=sys.stderr)
    sys.exit(1)


def v1_from_v2(image):
    """The v1 encoding of a v2 image: v1 stores the v2 header block's fields
    unframed, followed by the bare event records."""
    header_len = struct.unpack_from("<I", image, 8)[0]
    block = image[12:12 + header_len]
    pos = 12 + header_len + 4
    records = []
    while pos < len(image):
        n = struct.unpack_from("<I", image, pos)[0]
        records.append(image[pos + 4:pos + 4 + 27 * n])
        pos += 4 + 27 * n + 4
    return b"PTRC" + struct.pack("<I", 1) + block + b"".join(records)


def main():
    if len(sys.argv) != 4:
        fail("usage: check_trace_stats.py <perturb-trace> <trace.ptt> <dir>")
    tool, text_trace, work = sys.argv[1:]
    v2 = os.path.join(work, "stats_v2.bin")
    torn = os.path.join(work, "stats_torn.bin")
    v1 = os.path.join(work, "stats_v1.bin")

    code, _, err = run(tool, "convert", text_trace, v2)
    if code != 0:
        fail(f"convert exited {code}: {err.strip()}")
    with open(v2, "rb") as f:
        image = f.read()
    with open(torn, "wb") as f:
        f.write(image[:len(image) * 3 // 5])
    with open(v1, "wb") as f:
        f.write(v1_from_v2(image))

    code, info_out, err = run(tool, "info", v2)
    if code != 0:
        fail(f"info on v2 exited {code}: {err.strip()}")
    code, v2_out, err = run(tool, "stats", v2)
    if code != 0:
        fail(f"stats on v2 exited {code}: {err.strip()}")
    if "salvage:" in v2_out:
        fail(f"stats on an intact v2 file printed a salvage line:\n{v2_out}")
    if v2_out != info_out:
        fail(f"stats and info disagree on v2:\n{v2_out}\nvs\n{info_out}")

    code, torn_out, err = run(tool, "stats", torn)
    if code != 0:
        fail(f"stats on torn v2 exited {code}: {err.strip()}")
    if "salvage: salvaged " not in torn_out:
        fail(f"stats on torn v2 printed no salvage line:\n{torn_out}")

    code, v1_out, err = run(tool, "stats", v1)
    if code != 0:
        fail(f"stats on v1 exited {code}: {err.strip()}")
    if v1_out != v2_out:
        fail(f"stats disagrees between v1 and v2:\n{v1_out}\nvs\n{v2_out}")
    print("stats contract holds on v2, torn v2 and v1 files")


if __name__ == "__main__":
    main()
