package nand

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refCWSyndrome is the byte-serial definition of the codeword syndrome:
// per byte, fold in the XOR of its set-bit positions and their parity.
// cwSyndrome must match it on every input.
func refCWSyndrome(cw []byte) uint16 {
	var xp, pr uint16
	for i, b := range cw {
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

func TestCWSyndromeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= eccCodewordBytes; n++ {
		random := make([]byte, n)
		rng.Read(random)
		type tc struct {
			name string
			cw   []byte
		}
		cases := []tc{
			{"zero", make([]byte, n)},
			{"ones", bytes.Repeat([]byte{0xff}, n)},
			{"random", random},
		}
		if n > 0 {
			pos := rng.Intn(n * 8)
			flip := make([]byte, n)
			flip[pos>>3] = 1 << (pos & 7)
			flipped := append([]byte(nil), random...)
			flipped[pos>>3] ^= 1 << (pos & 7)
			cases = append(cases, tc{"single-bit", flip}, tc{"random-flipped", flipped})
		}
		for _, c := range cases {
			if got, want := cwSyndrome(c.cw), refCWSyndrome(c.cw); got != want {
				t.Fatalf("len %d %s: syndrome %#04x, reference %#04x", n, c.name, got, want)
			}
		}
	}
	// Every single-bit codeword of full length: the syndrome is exactly
	// the bit position plus the mark.
	cw := make([]byte, eccCodewordBytes)
	for pos := 0; pos < eccCodewordBytes*8; pos++ {
		cw[pos>>3] = 1 << (pos & 7)
		if got := cwSyndrome(cw); got != uint16(pos)|synMark {
			t.Fatalf("single bit at %d: syndrome %#04x, want %#04x", pos, got, uint16(pos)|synMark)
		}
		cw[pos>>3] = 0
	}
}

func testPage(size int, seed int64) []byte {
	page := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(page)
	return page
}

func TestECCRoundTripClean(t *testing.T) {
	for _, size := range []int{512, 4096, 8192, 1000} {
		page := testPage(size, 1)
		parity := ECCEncode(page)
		if got := len(parity); got != ECCSize(size) {
			t.Fatalf("size %d: parity length %d, want %d", size, got, ECCSize(size))
		}
		img := append([]byte(nil), page...)
		n, ok := ECCDecode(img, parity)
		if !ok || n != 0 {
			t.Fatalf("size %d: clean decode = (%d, %v), want (0, true)", size, n, ok)
		}
		if !bytes.Equal(img, page) {
			t.Fatalf("size %d: clean decode mutated the page", size)
		}
	}
}

func TestECCCorrectsOneBitPerCodeword(t *testing.T) {
	page := testPage(8192, 2)
	parity := ECCEncode(page)
	img := append([]byte(nil), page...)
	cws := eccCodewords(len(page))
	for c := 0; c < cws; c++ {
		pos := c*eccCodewordBytes*8 + (c*37+5)%(eccCodewordBytes*8)
		img[pos>>3] ^= 1 << (pos & 7)
	}
	n, ok := ECCDecode(img, parity)
	if !ok || n != cws {
		t.Fatalf("decode = (%d, %v), want (%d, true)", n, ok, cws)
	}
	if !bytes.Equal(img, page) {
		t.Fatal("correction did not restore the original page")
	}
}

func TestECCDetectsDoubleFlip(t *testing.T) {
	page := testPage(4096, 3)
	parity := ECCEncode(page)
	img := append([]byte(nil), page...)
	img[10] ^= 1 << 3
	img[200] ^= 1 << 6 // same codeword: even flip count, detected not corrected
	if _, ok := ECCDecode(img, parity); ok {
		t.Fatal("double flip in one codeword decoded as ok")
	}
}

func TestECCCRCBackstopsOddMultiFlip(t *testing.T) {
	// Three flips in one codeword can alias a single-bit correction; the
	// page CRC must reject the miscorrected image. Whatever the syndrome
	// path decides, ok=true with wrong bytes is the one forbidden outcome.
	page := testPage(4096, 4)
	parity := ECCEncode(page)
	for trial := int64(0); trial < 64; trial++ {
		img := append([]byte(nil), page...)
		rng := rand.New(rand.NewSource(trial))
		for k := 0; k < 3; k++ {
			pos := rng.Intn(eccCodewordBytes * 8)
			img[pos>>3] ^= 1 << (pos & 7)
		}
		if _, ok := ECCDecode(img, parity); ok && !bytes.Equal(img, page) {
			t.Fatalf("trial %d: triple flip returned wrong data as correct", trial)
		}
	}
}

func TestECCRejectsParityLengthMismatch(t *testing.T) {
	page := testPage(512, 5)
	if _, ok := ECCDecode(page, make([]byte, 3)); ok {
		t.Fatal("short parity accepted")
	}
}

func BenchmarkECCEncode(b *testing.B) {
	for _, size := range []int{4096, 16384} {
		b.Run(fmt.Sprintf("%dKB", size/1024), func(b *testing.B) {
			page := testPage(size, 1)
			parity := ECCEncode(page)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parity = ECCEncodeInto(parity, page)
			}
		})
	}
}

func BenchmarkECCDecode(b *testing.B) {
	page := testPage(4096, 1)
	parity := ECCEncode(page)
	img := append([]byte(nil), page...)
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		img[100] ^= 1 << 5 // one flipped bit, corrected back in place
		if n, ok := ECCDecode(img, parity); !ok || n != 1 {
			b.Fatalf("decode = (%d, %v), want (1, true)", n, ok)
		}
	}
}
