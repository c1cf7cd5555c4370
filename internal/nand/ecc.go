package nand

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
)

// ECC codec: per-codeword SEC-DED Hamming parity with a whole-page CRC-32C
// backstop, stored in the OOB metadata of every page programmed with real
// bytes.
//
// Each page is split into 512-byte codewords. Per codeword the encoder
// stores a 13-bit syndrome — the XOR of (bit position | synMark) over every
// set bit — which corrects any single flipped bit and detects any even
// number of flips. An odd number of flips ≥ 3 can alias a single-bit
// correction (miscorrection); the page-level CRC catches that case, so the
// decoder never returns wrong data as correct (the fuzz target
// FuzzECCRoundTrip asserts exactly this property).

const (
	// eccCodewordBytes is the SEC-DED codeword granularity. Real devices
	// protect 512-byte or 1-KB chunks; one syndrome per chunk bounds the
	// correction capability per page to the number of codewords.
	eccCodewordBytes = 512
	// synMark is OR-ed into every position term so the syndrome of a single
	// flipped bit is nonzero and distinguishable from an even-flip detect.
	// It must exceed the largest bit position in a codeword (4095).
	synMark = 0x1000
)

var (
	eccCRC = crc32.MakeTable(crc32.Castagnoli)
	// bitXOR[b] is the XOR of the indices (0..7) of the set bits of b;
	// bitPar[b] is the parity of its popcount. Together they let cwSyndrome
	// fold a tail byte into the syndrome with two table lookups.
	bitXOR [256]uint16
	bitPar [256]uint16
)

// synMasks[b] selects the in-word bit positions k (0..63) that have bit b
// set; the parity of x&synMasks[b] is syndrome bit b for a word XOR x.
var synMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

func init() {
	for b := 1; b < 256; b++ {
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				bitXOR[b] ^= uint16(i)
				bitPar[b] ^= 1
			}
		}
	}
}

// eccCodewords returns the number of codewords covering a page of n bytes.
func eccCodewords(n int) int {
	return (n + eccCodewordBytes - 1) / eccCodewordBytes
}

// ECCSize returns the parity blob size for a page of n bytes: two syndrome
// bytes per codeword plus the 4-byte page CRC.
func ECCSize(n int) int { return 2*eccCodewords(n) + 4 }

// cwSyndrome computes the codeword syndrome: the XOR of (p | synMark) over
// every set bit position p. A single flipped bit at p changes the syndrome
// by exactly (p | synMark).
//
// The kernel is word-parallel over a codeword of at most eccCodewordBytes
// (64 words). Bit k of little-endian uint64 word w is position
// p = 64w + k, so syndrome bits 0..5 are the parities of the bits of
// x = XOR(all words) under synMasks, bits 6+c are the parities of
// y_c = XOR(words whose index has bit c set), and synMark is the parity of
// x. The words are consumed in 64-byte blocks; a byte loop folds in any
// shorter tail. The result is bit-identical to the per-byte definition.
//
//simlint:hotpath
func cwSyndrome(cw []byte) uint16 {
	var x, y0, y1, y2, y3, y4, y5 uint64
	blocks := len(cw) / 64
	for blk := 0; blk < blocks; blk++ {
		b := cw[blk*64 : blk*64+64]
		w0 := binary.LittleEndian.Uint64(b[0:])
		w1 := binary.LittleEndian.Uint64(b[8:])
		w2 := binary.LittleEndian.Uint64(b[16:])
		w3 := binary.LittleEndian.Uint64(b[24:])
		w4 := binary.LittleEndian.Uint64(b[32:])
		w5 := binary.LittleEndian.Uint64(b[40:])
		w6 := binary.LittleEndian.Uint64(b[48:])
		w7 := binary.LittleEndian.Uint64(b[56:])
		// Word index = 8*blk + t: bits 0..2 come from t, 3..5 from blk.
		y0 ^= w1 ^ w3 ^ w5 ^ w7
		y1 ^= w2 ^ w3 ^ w6 ^ w7
		y2 ^= w4 ^ w5 ^ w6 ^ w7
		bx := w0 ^ w1 ^ w2 ^ w3 ^ w4 ^ w5 ^ w6 ^ w7
		x ^= bx
		y3 ^= bx & -uint64(blk&1)
		y4 ^= bx & -uint64(blk>>1&1)
		y5 ^= bx & -uint64(blk>>2&1)
	}
	var xp uint16
	for b, m := range synMasks {
		xp |= uint16(bits.OnesCount64(x&m)&1) << b
	}
	for c, y := range [6]uint64{y0, y1, y2, y3, y4, y5} {
		xp |= uint16(bits.OnesCount64(y)&1) << (6 + c)
	}
	pr := uint16(bits.OnesCount64(x) & 1)
	for i := blocks * 64; i < len(cw); i++ {
		b := cw[i]
		if b == 0 {
			continue
		}
		if bitPar[b] != 0 {
			xp ^= uint16(i) << 3
			pr ^= 1
		}
		xp ^= bitXOR[b]
	}
	if pr != 0 {
		xp |= synMark
	}
	return xp
}

// ECCEncode computes the parity blob for a page image.
func ECCEncode(page []byte) []byte {
	return ECCEncodeInto(nil, page)
}

// ECCEncodeInto appends the parity blob for a page image to dst (which is
// truncated to zero length first), reusing dst's capacity when possible.
//
//simlint:hotpath
func ECCEncodeInto(dst, page []byte) []byte {
	n := eccCodewords(len(page))
	size := 2*n + 4
	if cap(dst) >= size {
		dst = dst[:size]
	} else {
		dst = make([]byte, size) //simlint:allow hotalloc parity buffer capacity miss; steady state reuses the caller's slice
	}
	out := dst
	for c := 0; c < n; c++ {
		end := (c + 1) * eccCodewordBytes
		if end > len(page) {
			end = len(page)
		}
		binary.LittleEndian.PutUint16(out[2*c:], cwSyndrome(page[c*eccCodewordBytes:end]))
	}
	binary.LittleEndian.PutUint32(out[2*n:], crc32.Checksum(page, eccCRC))
	return out
}

// ECCDecode verifies page against the parity blob, correcting single-bit
// errors per codeword in place. It returns the number of bits corrected and
// whether the page decoded cleanly; on ok=false the page contents are
// undefined and must not be used.
func ECCDecode(page, parity []byte) (corrected int, ok bool) {
	n := eccCodewords(len(page))
	if len(parity) != 2*n+4 {
		return 0, false
	}
	for c := 0; c < n; c++ {
		end := (c + 1) * eccCodewordBytes
		if end > len(page) {
			end = len(page)
		}
		cw := page[c*eccCodewordBytes : end]
		d := binary.LittleEndian.Uint16(parity[2*c:]) ^ cwSyndrome(cw)
		switch {
		case d == 0:
			// Codeword clean.
		case d&synMark != 0:
			pos := int(d &^ synMark)
			if pos >= len(cw)*8 {
				return 0, false // syndrome points outside the codeword: multi-bit damage
			}
			cw[pos>>3] ^= 1 << (pos & 7)
			corrected++
		default:
			return 0, false // even number of flips: detected, uncorrectable
		}
	}
	if crc32.Checksum(page, eccCRC) != binary.LittleEndian.Uint32(parity[2*n:]) {
		return 0, false // miscorrection (≥3 aliased flips): CRC backstop
	}
	return corrected, true
}
