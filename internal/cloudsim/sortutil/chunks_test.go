package sortutil

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestChunksViewsStayPut appends byte runs of every size class —
// empty, small, ones that overflow the current chunk, and ones longer
// than a 64Ki window — and checks that every view still reads its run
// after all the appends, that no chunk was ever reallocated (a view
// taken right after its Append keeps its address), that Index counts
// stored bytes in append order, and that Offsets lists exactly the
// stored bytes' offsets.
func TestChunksViewsStayPut(t *testing.T) {
	var c Chunks[byte]
	type put struct {
		s      string
		lo, hi int32
		first  *byte
		index  int
	}
	var puts []put
	stored := 0
	sizes := []int{0, 1, 7, 200, 60, 300, 1 << 10, 0, 5000, 40000, 70000, 3, 200000, 65536, 65535, 1, 9}
	for round := 0; round < 3; round++ {
		for i, n := range sizes {
			s := strings.Repeat(string(rune('a'+(i+round)%26)), n)
			lo, hi := PutString(&c, s)
			if int(hi-lo) != n {
				t.Fatalf("PutString(%d bytes) = [%d, %d)", n, lo, hi)
			}
			p := put{s: s, lo: lo, hi: hi, index: stored}
			if v := View(&c, lo, hi); v != "" {
				p.first = unsafe.StringData(v)
			}
			puts = append(puts, p)
			stored += n
		}
	}
	if c.Len() != stored {
		t.Fatalf("Len = %d, want %d", c.Len(), stored)
	}
	offs := c.Offsets(nil)
	if len(offs) != stored {
		t.Fatalf("Offsets lists %d bytes, want %d", len(offs), stored)
	}
	for i, p := range puts {
		v := View(&c, p.lo, p.hi)
		if v != p.s {
			t.Fatalf("put %d: View = %d bytes, want its %d-byte string", i, len(v), len(p.s))
		}
		if p.first == nil {
			continue
		}
		if unsafe.StringData(v) != p.first {
			t.Fatalf("put %d moved: its chunk was reallocated", i)
		}
		if c.Index(p.lo) != p.index || c.Index(p.hi-1) != p.index+len(p.s)-1 {
			t.Fatalf("put %d: Index(lo) = %d, Index(hi-1) = %d, want %d and %d", i, c.Index(p.lo), c.Index(p.hi-1), p.index, p.index+len(p.s)-1)
		}
		if offs[p.index] != p.lo || c.At(p.lo) != p.s[0] {
			t.Fatalf("put %d: Offsets[%d] = %d, At = %q, want %d and %q", i, p.index, offs[p.index], c.At(p.lo), p.lo, p.s[0])
		}
	}
}

// TestChunksAllocateWhatTheyStore pins the reason the column exists:
// appending 100k 24-byte elements one at a time allocates less than
// twice what they occupy — the chunks double up to 64Ki elements, so
// the last one may be mostly empty — where a slice grown by append
// allocates several times it.
func TestChunksAllocateWhatTheyStore(t *testing.T) {
	type row struct {
		at         int64
		a, b, c, d int32
	}
	const n = 100_000
	var c Chunks[row]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c.Append(row{at: int64(i)})
	}
	runtime.ReadMemStats(&after)
	if got, stored := after.TotalAlloc-before.TotalAlloc, uint64(n*unsafe.Sizeof(row{})); got > 2*stored {
		t.Fatalf("appending %d rows (%d bytes) allocated %d bytes, want under twice that", n, stored, got)
	}
	for i, off := range c.Offsets(nil) {
		if got := c.At(off).at; got != int64(i) {
			t.Fatalf("row %d reads %d", i, got)
		}
	}
}
