package graph

import "testing"

// FuzzKShortest checks KSPEngine.Paths against the first k of the
// exhaustive enumeration on graphs of at most 9 vertices, whose edges
// are the bits of one word. One engine answers src→dst, dst→src and
// src→dst again, so kept labels are reused and replaced. Small k and
// sparse graphs end in the label stage; large k on dense graphs runs its
// budget out and ends in Yen.
func FuzzKShortest(f *testing.F) {
	f.Add(uint8(4), uint64(0b111111), uint8(0), uint8(3), uint8(2))      // K4
	f.Add(uint8(6), uint64(0x5a5a5), uint8(0), uint8(5), uint8(7))       // sparse
	f.Add(uint8(9), ^uint64(0), uint8(0), uint8(8), uint8(255))          // K9, every path
	f.Add(uint8(9), uint64(0x8421084210), uint8(1), uint8(7), uint8(15)) // disconnected
	f.Add(uint8(5), uint64(0b1001011), uint8(2), uint8(2), uint8(3))     // self pair
	f.Fuzz(func(t *testing.T, n uint8, edges uint64, src, dst, k uint8) {
		nv := 1 + int(n)%9
		g := New(nv)
		bit := 0
		for u := 0; u < nv; u++ {
			for v := u + 1; v < nv; v++ {
				if edges>>bit&1 == 1 {
					g.AddEdge(u, v)
				}
				bit++
			}
		}
		s, d, kk := int(src)%nv, int(dst)%nv, 1+int(k)
		eng := NewKSPEngine(g)
		for _, p := range [][2]int{{s, d}, {d, s}, {s, d}} {
			want := bruteLooplessPaths(g, p[0], p[1])
			want = want[:min(len(want), kk)]
			got := eng.Paths(p[0], p[1], kk)
			if len(got) != len(want) || (len(want) == 0) != (got == nil) {
				t.Fatalf("n=%d edges=%#x %d->%d k=%d: %v, want %v", nv, edges, p[0], p[1], kk, got, want)
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("n=%d edges=%#x %d->%d k=%d: path %d = %v, want %v", nv, edges, p[0], p[1], kk, i, got[i], want[i])
				}
			}
		}
	})
}
