package storage

import "encoding/binary"

// Database page images used by the crash-consistency harnesses: a page is
// reproducible from (id, version), carries a CRC-32C over its whole body,
// and therefore detects torn writes exactly the way InnoDB page checksums
// do. The body is deterministic filler, so engines need not keep page
// bytes in memory — only the (id, version) pair.

// PageImageHeader is the byte size of the image header.
const PageImageHeader = 20

// The body filler is the 64-bit LCG s' = A_1·s + C_1, emitting the top byte
// of each state. The pair (fillA<r>, fillC<r>) = (A_r, C_r) jumps r steps at
// once, s_{i+r} = A_r·s_i + C_r with A_r = A_1·A_{r-1} and
// C_r = A_1·C_{r-1} + C_1 (mod 2^64), so BuildPageImage derives the next
// eight states from one with independent multiplies.
const (
	fillA1 = 6364136223846793005
	fillC1 = 1442695040888963407
	fillA2 = fillA1 * fillA1 % (1 << 64)
	fillC2 = (fillA1*fillC1 + fillC1) % (1 << 64)
	fillA3 = fillA1 * fillA2 % (1 << 64)
	fillC3 = (fillA1*fillC2 + fillC1) % (1 << 64)
	fillA4 = fillA1 * fillA3 % (1 << 64)
	fillC4 = (fillA1*fillC3 + fillC1) % (1 << 64)
	fillA5 = fillA1 * fillA4 % (1 << 64)
	fillC5 = (fillA1*fillC4 + fillC1) % (1 << 64)
	fillA6 = fillA1 * fillA5 % (1 << 64)
	fillC6 = (fillA1*fillC5 + fillC1) % (1 << 64)
	fillA7 = fillA1 * fillA6 % (1 << 64)
	fillC7 = (fillA1*fillC6 + fillC1) % (1 << 64)
	fillA8 = fillA1 * fillA7 % (1 << 64)
	fillC8 = (fillA1*fillC7 + fillC1) % (1 << 64)
)

// BuildPageImage fills buf (any size >= PageImageHeader) with the canonical
// image of page id at the given version.
//
//simlint:hotpath
func BuildPageImage(buf []byte, id uint64, version uint64) {
	binary.LittleEndian.PutUint64(buf[4:12], id)
	binary.LittleEndian.PutUint64(buf[12:20], version)
	// Deterministic body derived from (id, version), eight bytes per step.
	seed := id*0x9e3779b97f4a7c15 ^ version*0xbf58476d1ce4e5b9
	i := PageImageHeader
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], (fillA1*seed+fillC1)>>56|
			(fillA2*seed+fillC2)>>56<<8|
			(fillA3*seed+fillC3)>>56<<16|
			(fillA4*seed+fillC4)>>56<<24|
			(fillA5*seed+fillC5)>>56<<32|
			(fillA6*seed+fillC6)>>56<<40|
			(fillA7*seed+fillC7)>>56<<48|
			(fillA8*seed+fillC8)>>56<<56)
		seed = fillA8*seed + fillC8
	}
	for ; i < len(buf); i++ {
		seed = seed*fillA1 + fillC1
		buf[i] = byte(seed >> 56)
	}
	binary.LittleEndian.PutUint32(buf[0:4], Checksum(buf[4:]))
}

// ParsePageImage validates buf's checksum and returns the embedded id and
// version. ok is false for torn, corrupt or never-written pages.
func ParsePageImage(buf []byte) (id, version uint64, ok bool) {
	if len(buf) < PageImageHeader {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != Checksum(buf[4:]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(buf[4:12]), binary.LittleEndian.Uint64(buf[12:20]), true
}
