"""Writes the raw-DEFLATE fixtures of `zlib_fixtures.rs` from corpus.txt.

corpus.txt is the repository's PAPER.md (the paper's summary and the
start of the design notes) followed by the `simulink/blockdiagram.xml`
that `frodo demo` writes into the Kalman and HT `.slx` files. The streams
come from zlib, an independent compressor, with wbits -15 (raw DEFLATE,
no header):

- corpus-l{1,6,9}.deflate: one stream each at levels 1, 6 and 9; their
  dynamic literal trees have codes longer than the decoder's lookup
  table, and levels 6 and 9 use matches of the maximum length 258;
- corpus-mixed.deflate: the first third at level 6, the second at level 0
  (stored blocks), the last at level 9. Each part but the last ends with
  Z_FULL_FLUSH, which writes an empty stored block and resets the window,
  so the three parts join into one valid stream.

Run from this directory: python3 make_fixtures.py
"""

import zlib

text = open("corpus.txt", "rb").read()


def raw(level):
    return zlib.compressobj(level, zlib.DEFLATED, -15)


for level in (1, 6, 9):
    c = raw(level)
    with open(f"corpus-l{level}.deflate", "wb") as f:
        f.write(c.compress(text) + c.flush())

a, b = len(text) // 3, 2 * len(text) // 3
c6, c0, c9 = raw(6), raw(0), raw(9)
mixed = (
    c6.compress(text[:a])
    + c6.flush(zlib.Z_FULL_FLUSH)
    + c0.compress(text[a:b])
    + c0.flush(zlib.Z_FULL_FLUSH)
    + c9.compress(text[b:])
    + c9.flush()
)
assert zlib.decompress(mixed, -15) == text
with open("corpus-mixed.deflate", "wb") as f:
    f.write(mixed)
