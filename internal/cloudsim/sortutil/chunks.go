package sortutil

import "unsafe"

// Chunks is an append-only column of T addressed by int32 offsets —
// the storage the telemetry stores keep their retained events in. With
// a pointer-free T (offsets, ids, bytes) the GC never scans it.
//
// Elements go into chunks that are never reallocated: the first holds
// about 256 bytes of elements and each next one twice as many, up to
// 64Ki elements. Growing a column therefore never copies what it holds
// — appending n elements allocates about n elements, where a slice
// grown by append allocates several times its final size — and a
// column with few elements holds a small chunk. Append stores a run of
// elements contiguously in one chunk, so Run can return it as one
// slice. Each chunk is reached through its own 64Ki-element window of
// the offset space (a run longer than a window gets a chunk of its own
// that spans several), which caps a column at 2Gi elements.
//
// Aliasing rule: an element below an offset Append has returned is
// written once, by that Append, and never again, and a chunk is never
// moved. So the slices Run returns, and the strings View returns over
// a byte column, stay valid and unchanged for as long as they are
// held; the owning store reads through them without copying and must
// not write to them, and a value that leaves the store is copied, so
// no caller outside the store holds a view. The zero Chunks is empty
// and ready to use; like Names, it has no lock of its own.
type Chunks[T any] struct {
	win  [][]T   // win[w] holds the elements addressed w<<chunkWinBits | pos
	base []int32 // base[w] counts the elements stored before win[w][0]
	cur  int     // the window Append fills
	next int     // capacity of the next chunk
	n    int32   // elements stored
}

const (
	chunkWinBits    = 16
	chunkWin        = 1 << chunkWinBits
	chunkMaxWindows = 1 << (31 - chunkWinBits)
)

// Append stores run contiguously and returns its offsets [lo, hi);
// hi-lo is len(run). An empty run stores nothing and returns 0, 0.
func (c *Chunks[T]) Append(run ...T) (lo, hi int32) {
	if len(run) == 0 {
		return 0, 0
	}
	if len(c.win) == 0 || cap(c.win[c.cur])-len(c.win[c.cur]) < len(run) {
		c.newChunk(len(run))
	}
	w := c.win[c.cur]
	lo = int32(c.cur<<chunkWinBits + len(w))
	w = append(w, run...)
	c.win[c.cur] = w
	// A chunk longer than a window (one long run) is reached through
	// one window per 64Ki elements of it, each a view to its end.
	for off := chunkWin; off < len(w); off += chunkWin {
		c.win = append(c.win, w[off:])
		c.base = append(c.base, c.base[c.cur]+int32(off))
	}
	c.n += int32(len(run))
	return lo, lo + int32(len(run))
}

// newChunk opens a chunk with room for need elements, in a fresh
// window. The rest of the current chunk, too short for the run, stays
// unused.
func (c *Chunks[T]) newChunk(need int) {
	if c.next == 0 {
		var zero T
		c.next = max(1, 256/int(max(unsafe.Sizeof(zero), 1)))
	}
	size := max(c.next, need)
	c.next = min(2*c.next, chunkWin)
	if len(c.win)+(size+chunkWin-1)/chunkWin > chunkMaxWindows {
		panic("sortutil: column exceeds its 2Gi-element offset space")
	}
	c.cur = len(c.win)
	c.win = append(c.win, make([]T, 0, size))
	c.base = append(c.base, c.n)
}

// At returns the element at offset a.
func (c *Chunks[T]) At(a int32) T { return c.win[a>>chunkWinBits][a&(chunkWin-1)] }

// Run returns the run [lo, hi) as a slice of its chunk, without
// copying; see the aliasing rule on Chunks. Callers must not write to
// it.
func (c *Chunks[T]) Run(lo, hi int32) []T {
	if lo == hi {
		return nil
	}
	p := lo & (chunkWin - 1)
	return c.win[lo>>chunkWinBits][p : p+hi-lo : p+hi-lo]
}

// Len reports how many elements the column stores.
func (c *Chunks[T]) Len() int { return int(c.n) }

// Index returns the position, counting from 0 in append order, of the
// element at offset a.
func (c *Chunks[T]) Index(a int32) int { return int(c.base[a>>chunkWinBits] + a&(chunkWin-1)) }

// Offsets appends the offset of every stored element to dst, in
// append order, and returns it.
func (c *Chunks[T]) Offsets(dst []int32) []int32 {
	for w := 0; w < len(c.win); w++ {
		n := len(c.win[w])
		for p := 0; p < n; p++ {
			dst = append(dst, int32(w<<chunkWinBits+p))
		}
		w += (n - 1) / chunkWin // skip the windows of a long chunk
	}
	return dst
}

// PutString appends s's bytes to a byte column and returns their
// offsets; see Append.
func PutString(c *Chunks[byte], s string) (lo, hi int32) {
	return c.Append(unsafe.Slice(unsafe.StringData(s), len(s))...)
}

// View returns the bytes [lo, hi) of a byte column as a string without
// copying them; see the aliasing rule on Chunks.
func View(c *Chunks[byte], lo, hi int32) string {
	b := c.Run(lo, hi)
	return unsafe.String(unsafe.SliceData(b), len(b))
}
