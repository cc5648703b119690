package sortutil

import (
	"testing"
	"time"
)

// TestWindowMatchesLinearScan pins Window against the obvious linear
// scan: the entries inside [from, to] (zero bounds open) must be
// exactly the half-open range it returns.
func TestWindowMatchesLinearScan(t *testing.T) {
	base := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	sec := func(s int) time.Time { return base.Add(time.Duration(s) * time.Second) }
	var open time.Time
	dups := []int{1, 2, 2, 2, 3, 4, 4, 4, 5}
	cases := []struct {
		name     string
		col      []int // seconds after base, non-decreasing
		from, to time.Time
	}{
		{"empty column", nil, sec(1), sec(5)},
		{"empty column, open bounds", nil, open, open},
		{"both bounds open", dups, open, open},
		{"open from", dups, open, sec(2)},
		{"open to", dups, sec(4), open},
		{"from after to", dups, sec(4), sec(2)},
		{"from after to, both inside one run", dups, sec(4), sec(3)},
		{"duplicates on both edges", dups, sec(2), sec(4)},
		{"from == to inside a run of duplicates", dups, sec(4), sec(4)},
		{"from == to between entries", []int{1, 3, 5}, sec(2), sec(2)},
		{"window before the column", dups, sec(-5), sec(0)},
		{"window after the column", dups, sec(6), sec(9)},
		{"all one timestamp", []int{7, 7, 7, 7}, sec(7), sec(7)},
	}
	for _, c := range cases {
		ns := make([]int64, len(c.col))
		for i, s := range c.col {
			ns[i] = sec(s).UnixNano()
		}
		lo, hi := Window(len(ns), func(i int) int64 { return ns[i] }, c.from, c.to)
		var want []int
		for i, v := range ns {
			if (c.from.IsZero() || v >= c.from.UnixNano()) && (c.to.IsZero() || v <= c.to.UnixNano()) {
				want = append(want, i)
			}
		}
		if lo < 0 || hi < lo || hi > len(ns) {
			t.Errorf("%s: Window = [%d, %d), not a range of %d entries", c.name, lo, hi, len(ns))
			continue
		}
		if hi-lo != len(want) || (len(want) > 0 && lo != want[0]) {
			t.Errorf("%s: Window = [%d, %d), linear scan matches indices %v", c.name, lo, hi, want)
		}
	}
}

// TestNames pins the interner: ids are dense and stable in first-seen
// order, Name reads them back, and Lookup never inserts.
func TestNames(t *testing.T) {
	var n Names
	if _, ok := n.Lookup("kms"); ok {
		t.Fatal("Lookup hit on an empty interner")
	}
	for i, c := range []struct {
		name string
		want int32
	}{
		{"kms", 0}, {"s3", 1}, {"kms", 0}, {"lambda", 2}, {"s3", 1},
	} {
		if got := n.IDLocked(c.name); got != c.want {
			t.Errorf("step %d: IDLocked(%q) = %d, want %d", i, c.name, got, c.want)
		}
	}
	if id, ok := n.Lookup("lambda"); !ok || id != 2 {
		t.Errorf("Lookup(lambda) = %d, %v; want 2, true", id, ok)
	}
	if _, ok := n.Lookup("dynamo"); ok {
		t.Error("Lookup hit on a name never interned")
	}
	// The miss above must not have taken id 3.
	if got := n.IDLocked("dynamo"); got != 3 {
		t.Errorf("IDLocked(dynamo) after a Lookup miss = %d, want 3", got)
	}
	for id, want := range []string{"kms", "s3", "lambda", "dynamo"} {
		if got := n.Name(int32(id)); got != want {
			t.Errorf("Name(%d) = %q, want %q", id, got, want)
		}
	}
}
