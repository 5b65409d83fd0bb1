#!/usr/bin/env python3
"""Regenerate the malformed-trace corpus consumed by analysis_test.cc.

Each file seeds exactly the defect named by its file name; the clean
trace must audit with zero findings.  Event tags and the HMDT layout
mirror src/trace/trace_format.hh and src/runtime/events.hh.

Usage: python3 gen_corpus.py   (writes *.trace next to itself)
"""

import os
import struct

MAGIC = 0x54444D48  # "HMDT" little-endian
VERSION = 1
FOOTER = b"\xff"

ALLOC, FREE, REALLOC, WRITE, READ, FN_ENTER, FN_EXIT = range(7)

# Bases of giant_alloc.trace's two wide extents.
GIANT_A = 0x10000000
GIANT_B = 1 << 45


def varint(value):
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def header(version=VERSION):
    return struct.pack("<II", MAGIC, version)


def header2(flags):
    """Version-2 header with a flags word (bit 0: capture provenance)."""
    return struct.pack("<III", MAGIC, 2, flags)


def event(tag, *fields):
    return bytes([tag]) + b"".join(varint(f) for f in fields)


def footer(names=()):
    out = bytearray(FOOTER)
    out += varint(len(names))
    for name in names:
        encoded = name.encode()
        out += varint(len(encoded)) + encoded
    return bytes(out)


CORPUS = {
    # Zero findings: every rule must stay quiet on this one.
    "clean.trace": header()
    + event(FN_ENTER, 0)
    + event(ALLOC, 0x1000, 64)
    + event(ALLOC, 0x2000, 32)
    + event(WRITE, 0x1000, 0x2000)
    + event(READ, 0x1008)
    + event(REALLOC, 0x2000, 0x3000, 48)
    + event(WRITE, 0x1000, 0x3000)
    + event(FREE, 0x3000)
    + event(FREE, 0x1000)
    + event(FN_EXIT, 0)
    + footer(["main"]),
    # trace.bad-magic
    "bad_magic.trace": b"XXXX"
    + struct.pack("<I", VERSION)
    + footer(),
    # trace.bad-magic: shorter than the 8-byte magic + version
    "short_header.trace": header()[:5],
    # trace.bad-version
    "bad_version.trace": header(version=99) + footer(),
    # trace.varint-truncated: alloc size field ends mid-varint
    "truncated_varint.trace": header()
    + bytes([ALLOC])
    + varint(0x1000)
    + b"\x80\x80",
    # trace.varint-overlong: 11-byte encoding of the alloc address
    "overlong_varint.trace": header()
    + bytes([ALLOC])
    + b"\x80" * 10
    + b"\x01"
    + varint(64)
    + footer(),
    # trace.no-footer: complete event, then EOF
    "missing_footer.trace": header() + event(ALLOC, 0x1000, 64),
    # trace.footer-truncated: table claims 2 names, delivers 1
    "footer_truncated.trace": header()
    + FOOTER
    + varint(2)
    + varint(4)
    + b"main",
    # trace.footer-truncated: the name length claims far more bytes
    # than the stream holds; readers must fail without ever
    # pre-allocating the claimed length
    "footer_name_overflow.trace": header()
    + FOOTER
    + varint(1)
    + varint(0xFFFFFFFFFF)
    + b"ab",
    # trace.unknown-tag
    "unknown_tag.trace": header() + bytes([0x42]) + footer(),
    # trace.fn-id-range: FnEnter 5 but the table has one name
    "fn_id_gap.trace": header()
    + event(FN_ENTER, 5)
    + event(FN_EXIT, 5)
    + footer(["main"]),
    # trace.free-before-alloc
    "free_before_alloc.trace": header()
    + event(FREE, 0x1000)
    + footer(),
    # trace.write-after-free
    "write_after_free.trace": header()
    + event(ALLOC, 0x1000, 64)
    + event(FREE, 0x1000)
    + event(WRITE, 0x1008, 0x2000)
    + footer(),
    # trace.alloc-overlap
    "alloc_overlap.trace": header()
    + event(ALLOC, 0x1000, 64)
    + event(ALLOC, 0x1010, 16)
    + footer(),
    # trace.zero-alloc
    "zero_alloc.trace": header() + event(ALLOC, 0x1000, 0) + footer(),
    # trace.trailing-bytes (warning, not error)
    "trailing_bytes.trace": header() + footer() + b"junk",
    # --- flow.* corpus (audit --deep; flow_lint_test.cc) ------------
    # The pre-existing cases above double as flow fixtures:
    # free_before_alloc -> flow.free_unallocated, write_after_free ->
    # flow.write_freed, alloc_overlap -> flow.overlap_alloc.
    # flow.double_free: freed at event 2, freed again at event 3
    "flow_double_free.trace": header()
    + event(FN_ENTER, 0)
    + event(ALLOC, 0x1000, 64)
    + event(FREE, 0x1000)
    + event(FREE, 0x1000)
    + event(FN_EXIT, 0)
    + footer(["main"]),
    # flow.size_mismatch: free of an interior pointer (offset 16)
    "flow_size_mismatch.trace": header()
    + event(ALLOC, 0x1000, 64)
    + event(FREE, 0x1010)
    + event(FREE, 0x1000)
    + footer(),
    # flow.negative_size: bit 63 set, an ssize_t gone negative
    "flow_negative_size.trace": header()
    + event(ALLOC, 0x1000, 1 << 63)
    + footer(),
    # flow.write_unmapped: pointer write no extent ever covered
    "flow_write_unmapped.trace": header()
    + event(WRITE, 0x9000, 0)
    + footer(),
    # flow.leak_at_exit: one 64-byte object still live at the footer
    "flow_leak_at_exit.trace": header()
    + event(FN_ENTER, 0)
    + event(ALLOC, 0x1000, 64)
    + event(FN_EXIT, 0)
    + footer(["leaky"]),
    # flow.dangling_edge: B's slot points at A; A is freed and its
    # extent recycled; the slot is loaded and the very next memory
    # event writes inside A's old extent -- a UAF write through the
    # dangling edge.
    "flow_dangling_reuse.trace": header()
    + event(ALLOC, 0x1000, 32)  # A
    + event(ALLOC, 0x2000, 32)  # B
    + event(WRITE, 0x2000, 0x1000)  # slot B+0 -> A
    + event(FREE, 0x1000)
    + event(ALLOC, 0x1000, 32)  # recycles A's extent
    + event(READ, 0x2000)  # load the stale slot
    + event(WRITE, 0x1008, 0)  # write through it -> fires
    + event(FREE, 0x1000)
    + event(FREE, 0x2000)
    + footer(),
    # Capture provenance: the shim misses frees, so address reuse is
    # legal -- flow.overlap_alloc must NOT fire (zero flow findings).
    "capture_addr_reuse.trace": header2(1)
    + event(ALLOC, 0x1000, 64)
    + event(WRITE, 0x1000, 0)
    + event(ALLOC, 0x1000, 64)
    + event(FREE, 0x1000)
    + footer(),
    # Capture provenance downgrades write_freed to a warning
    "capture_write_freed.trace": header2(1)
    + event(ALLOC, 0x1000, 64)
    + event(FREE, 0x1000)
    + event(WRITE, 0x1008, 0)
    + footer(),
    # Capture provenance downgrades leak_at_exit to a note
    "capture_leak.trace": header2(1)
    + event(ALLOC, 0x1000, 64)
    + footer(),
    # Zero findings, but two extents far wider than an index leaf: a
    # 16 TiB allocation and one just under 2^63 bytes, with pointer
    # writes deep inside both.  Every address index must handle them
    # in bounded work (audit, train --trace and replay stay fast).
    "giant_alloc.trace": header()
    + event(FN_ENTER, 0)
    + event(ALLOC, 0x1000, 64)
    + event(ALLOC, GIANT_A, 1 << 44)
    + event(WRITE, GIANT_A + (1 << 43), 0x1000)
    + event(WRITE, 0x1000, GIANT_A + (1 << 40))
    + event(ALLOC, GIANT_B, (1 << 63) - 4096)
    + event(WRITE, GIANT_B + (1 << 62), GIANT_B)
    + event(FREE, GIANT_B)
    + event(FREE, GIANT_A)
    + event(FREE, 0x1000)
    + event(FN_EXIT, 0)
    + footer(["main"]),
}


def main():
    out_dir = os.path.dirname(os.path.abspath(__file__))
    for name, blob in sorted(CORPUS.items()):
        path = os.path.join(out_dir, name)
        with open(path, "wb") as fh:
            fh.write(blob)
        print(f"{name}: {len(blob)} bytes")


if __name__ == "__main__":
    main()
