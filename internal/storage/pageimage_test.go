package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// refBuildPageImage is the byte-serial definition of the canonical page
// image: one LCG step per body byte. BuildPageImage must match it exactly.
func refBuildPageImage(buf []byte, id uint64, version uint64) {
	binary.LittleEndian.PutUint64(buf[4:12], id)
	binary.LittleEndian.PutUint64(buf[12:20], version)
	seed := id*0x9e3779b97f4a7c15 ^ version*0xbf58476d1ce4e5b9
	for i := PageImageHeader; i < len(buf); i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		buf[i] = byte(seed >> 56)
	}
	binary.LittleEndian.PutUint32(buf[0:4], Checksum(buf[4:]))
}

func TestBuildPageImageMatchesReference(t *testing.T) {
	sizes := []int{4 * KB, 16 * KB}
	for n := PageImageHeader; n <= 200; n++ {
		sizes = append(sizes, n)
	}
	ids := [][2]uint64{{0, 0}, {1, 0}, {42, 7}, {1 << 63, ^uint64(0)}, {^uint64(0), 1}}
	for _, n := range sizes {
		for _, iv := range ids {
			got := make([]byte, n)
			want := make([]byte, n)
			BuildPageImage(got, iv[0], iv[1])
			refBuildPageImage(want, iv[0], iv[1])
			if !bytes.Equal(got, want) {
				t.Fatalf("size %d id %d ver %d: image differs from the byte-serial reference", n, iv[0], iv[1])
			}
		}
	}
}

func BenchmarkBuildPageImage(b *testing.B) {
	for _, n := range []int{4 * KB, 16 * KB} {
		b.Run(fmt.Sprintf("%dKB", n/KB), func(b *testing.B) {
			buf := make([]byte, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				BuildPageImage(buf, uint64(i), 3)
			}
		})
	}
}
