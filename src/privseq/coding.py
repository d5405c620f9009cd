"""One-time-pad over a finite alphabet and prefix-free binary codebooks.

Bitstrings are plain '0'/'1' strings so equality is bit-exact and transcripts
are directly printable. A slot holds exactly one codeword, so it is decoded by
one whole-codeword lookup (`Codebook.decode`); no prefix of it is scanned. The
pad slot's fixed-length word is written and read from |X|, with no book.
Packed binary output uses big-endian bit order within bytes with the final
partial byte zero-padded. Slot labels and bit-lengths travel in a header, so
each slot's bits are known before decoding; the reader checks each label
against its position (`slot_label`), and nonzero padding is rejected: a
transcript has one packed form.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .errors import ValidationError, check_index

FIXED = "fixed"
ENTROPY = "entropy"


@dataclass(frozen=True)
class PadKey:
    """A shared secret symbol drawn uniformly from {0..modulus-1}."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        check_index(self.modulus, 1, None, "key modulus")
        check_index(self.value, 0, self.modulus - 1, "key value")


def otp_encrypt(x: int, key: PadKey) -> int:
    """(x + key) mod m: uniform and independent of x for a uniform key."""
    return (check_index(x, 0, key.modulus - 1, "symbol") + key.value) % key.modulus


def otp_decrypt(xt: int, key: PadKey) -> int:
    return (check_index(xt, 0, key.modulus - 1, "padded symbol") - key.value) % key.modulus


@dataclass(frozen=True)
class Codebook:
    """Prefix-free binary code for one finite alphabet.

    `words` maps symbol -> bitstring; symbols absent from the map cannot be
    encoded (zero-probability symbols of an entropy code). A one-symbol
    alphabet gets the empty codeword.
    """

    words: Mapping[int, str]

    def __post_init__(self) -> None:
        for s, w in self.words.items():
            if set(w) - {"0", "1"}:
                raise ValidationError(f"word for symbol {s} is not binary: {w!r}")
        if len(set(self.words.values())) != len(self.words):
            raise ValidationError("codewords must be distinct")
        if not verify_prefix_free(self):
            raise ValidationError("codebook is not prefix-free")

    @cached_property
    def _reverse(self) -> dict[str, int]:
        return {w: s for s, w in self.words.items()}

    def encode(self, symbol: int) -> str:
        if symbol not in self.words:
            raise ValidationError(f"symbol {symbol} has no codeword")
        return self.words[symbol]

    def length(self, symbol: int) -> int:
        """len(encode(symbol))."""
        word = self.words.get(symbol)
        if word is None:
            raise ValidationError(f"symbol {symbol} has no codeword")
        return len(word)

    def decode(self, bits: str) -> int:
        """The symbol whose codeword is exactly `bits`."""
        symbol = self._reverse.get(bits)
        if symbol is None:
            raise ValidationError(f"undecodable bitstring {bits!r}")
        return symbol


def verify_prefix_free(codebook: Codebook) -> bool:
    """True iff no codeword is a proper prefix of another."""
    words = sorted(codebook.words.values())
    for a, b in zip(words, words[1:]):
        if b.startswith(a):
            return False
    return True


def fixed_width(size: int) -> int:
    """ceil(log2 size), the bits of every word of a fixed-length code over size symbols."""
    return (check_index(size, 1, None, "alphabet size") - 1).bit_length()


def fixed_length_codebook(size: int) -> Codebook:
    """ceil(log2 size)-bit words for symbols 0..size-1; empty word at size 1."""
    return Codebook({s: fixed_encode(s, size) for s in range(check_index(size, 1, None, "alphabet size"))})


def fixed_encode(symbol: int, size: int) -> str:
    """The word `fixed_length_codebook(size)` gives `symbol`, written without the book."""
    width = fixed_width(size)  # symbol < size <= 2^width, so only width 0 is cut, to ""
    return format(check_index(symbol, 0, size - 1, "symbol"), f"0{width}b")[:width]


def fixed_decode(bits: str, size: int) -> int:
    """The symbol whose `fixed_encode` word is exactly `bits`, read without a book."""
    # int() also reads "_", signs and spaces, so the digits are checked first
    if len(bits) == fixed_width(size) and not bits.strip("01") and (symbol := int(bits or "0", 2)) < size:
        return symbol
    raise ValidationError(f"undecodable bitstring {bits!r}")


def entropy_codebook(weights: Sequence[int]) -> Codebook:
    """Canonical Huffman code over the symbols s with `weights[s]` > 0.

    The weights are nonnegative integers proportional to the design
    probabilities; a zero weight is an absent symbol. Ties break by ascending
    symbol index, then codeword lengths are laid out canonically, so identical
    inputs always yield identical books, and so do proportional ones. Expected
    length is within [H, H+1) of the design distribution.
    """
    support = [s for s, w in enumerate(weights) if w > 0]
    if not support:
        raise ValidationError("distribution has empty support")
    if any(w < 0 for w in weights):
        raise ValidationError("negative probability")
    if len(support) == 1:
        return Codebook({support[0]: ""})

    heap = [(weights[s], tie, [s]) for tie, s in enumerate(support)]
    heapq.heapify(heap)
    tie = len(support)
    depth = {s: 0 for s in support}
    while len(heap) > 1:
        pa, _, ga = heapq.heappop(heap)
        pb, _, gb = heapq.heappop(heap)
        for s in ga + gb:
            depth[s] += 1
        heapq.heappush(heap, (pa + pb, tie, ga + gb))
        tie += 1

    code = 0
    prev = None
    words: dict[int, str] = {}
    for length, s in sorted((depth[s], s) for s in support):
        if prev is not None:
            code = (code + 1) << (length - prev)
        words[s] = format(code, f"0{length}b")
        prev = length
    return Codebook(words)


def slot_label(i: int) -> str:
    """The slot layout: slot 0 is "pad" (the padded private symbol), slot i is "u<i>"."""
    return f"u{i}" if i else "pad"


# ---------------------------------------------------------------------------
# Packed transcript file format: magic, slot count, per-slot label (checked
# against `slot_label`) and bit length, then one continuous big-endian bit
# stream zero-padded to a byte.
# ---------------------------------------------------------------------------

_MAGIC = b"PSQ1"


def pack_slots(bitstrings: Sequence[str]) -> bytes:
    if len(bitstrings) > 0xFFFF:
        raise ValidationError(f"{len(bitstrings)} slots exceed the format's 65535")
    head = bytearray(_MAGIC)
    head += struct.pack(">H", len(bitstrings))
    for i, bits in enumerate(bitstrings):
        if bits.strip("01"):
            raise ValidationError(f"slot {slot_label(i)!r} carries a non-binary string {bits!r}")
        raw = slot_label(i).encode("ascii")
        head += struct.pack(">B", len(raw)) + raw + struct.pack(">I", len(bits))
    allbits = "".join(bitstrings)
    pad = -len(allbits) % 8
    body = (int(allbits, 2) << pad).to_bytes((len(allbits) + pad) // 8, "big") if allbits else b""
    return bytes(head) + body


def unpack_slots(data: bytes) -> tuple[str, ...]:
    if data[:4] != _MAGIC:
        raise ValidationError("not a packed transcript (bad magic)")
    pos = 4
    lengths = []
    try:
        (count,) = struct.unpack_from(">H", data, pos)
        pos += 2
        for i in range(count):
            (llen,) = struct.unpack_from(">B", data, pos)
            pos += 1
            # a non-ASCII byte reads as a backslash escape, which no slot label has
            label = data[pos:pos + llen].decode("ascii", "backslashreplace")
            pos += llen
            (blen,) = struct.unpack_from(">I", data, pos)
            pos += 4
            if label != slot_label(i):
                raise ValidationError(f"slot {i} is labelled {label!r}, expected {slot_label(i)!r}")
            lengths.append(blen)
    except struct.error:
        raise ValidationError("truncated or corrupt packed-transcript header") from None
    total = sum(lengths)
    body = data[pos:]
    if len(body) != (total + 7) // 8:
        raise ValidationError("packed payload length disagrees with the header")
    pad = 8 * len(body) - total
    stream = int.from_bytes(body, "big")
    if stream & ((1 << pad) - 1):
        raise ValidationError("nonzero padding bits after the last slot")
    allbits = format(stream >> pad, f"0{total}b") if total else ""
    starts = itertools.accumulate(lengths, initial=0)
    return tuple(allbits[at:at + blen] for at, blen in zip(starts, lengths))
