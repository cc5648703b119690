package trace

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/pricing"
)

// TestSpanTreeAllocs pins a traced request's write path once the store
// has a slab: New, every StartChild, Annotate, AddUsage and Finish,
// and the fold, allocate exactly one object — the Trace, which holds
// the span handles and is never recycled. The spans' data, child
// links, annotations and usage come from the slab the first trace left
// in the store, and the fold's scratch rows are the store's own. The
// columns open a new chunk now and then, and the per-trace columns
// grow, a few times in the measured runs, which AllocsPerRun's integer
// average rounds away; a second allocation per trace would not be.
func TestSpanTreeAllocs(t *testing.T) {
	s := NewStore(nil)
	benchTrace(s, t0) // grows the slab the measured traces reuse
	const runs = 200
	start := t0
	got := testing.AllocsPerRun(runs, func() {
		start = start.Add(time.Second)
		benchTrace(s, start)
	})
	if got != 1 {
		t.Fatalf("a traced request allocates %v times, want 1 (the Trace)", got)
	}
	if len(s.free) != 1 {
		t.Fatalf("store holds %d free slabs after sequential traces, want 1", len(s.free))
	}
}

// TestLateSpanCallsAfterFold finishes, annotates, bills and extends
// spans of a trace after its root has folded — before and after its
// slab has been handed to the next trace. Every such call is a no-op:
// the first trace's stored rows stay as folded, and the next trace,
// which writes into the very slots the late calls name, stores exactly
// what it wrote.
func TestLateSpanCallsAfterFold(t *testing.T) {
	book := pricing.Default2017()
	s := NewStore(nil)
	a := New(s, "a", t0)
	kid := a.Root().StartChild("s3", "s3:GetObject", t0.Add(time.Millisecond))
	grand := kid.StartChild("iam", "s3:GetObject", t0.Add(time.Millisecond))
	kid.Annotate("bytes", "42")
	slab := a.slab
	va, _ := a.Finish(t0.Add(time.Second))
	wantA := segments(va, book)

	late := func(at time.Time) {
		kid.Finish(at)
		grand.Finish(at)
		kid.Annotate("bytes", "late")
		kid.Annotate("late", "x")
		kid.AddUsage(pricing.Usage{Kind: pricing.S3GetRequests, Quantity: 1})
		a.Root().Annotate("late", "x")
		if c := kid.StartChild("kms", "kms:Decrypt", at); c != nil {
			t.Errorf("StartChild on a folded trace's span = %v, want nil", c)
		}
		if v, ok := kid.Annotation("bytes"); ok {
			t.Errorf("Annotation on a folded trace's span = %q, want nothing", v)
		}
	}
	late(t0.Add(2 * time.Second)) // slab back in the store, not yet reused

	b := New(s, "b", t0.Add(3*time.Second))
	if b.slab != slab {
		t.Fatal("the next trace did not reuse the folded trace's slab")
	}
	bk := b.Root().StartChild("kms", "kms:Decrypt", t0.Add(3*time.Second))
	bk.Annotate("result", "allow")
	bk.AddUsage(pricing.Usage{Kind: pricing.KMSRequests, Quantity: 1, App: "b"})
	bg := bk.StartChild("iam", "kms:Decrypt", t0.Add(3*time.Second))
	late(t0.Add(4 * time.Second)) // kid and grand now name b's live slots
	bg.Finish(t0.Add(3*time.Second + time.Millisecond))
	bk.Finish(t0.Add(3*time.Second + 5*time.Millisecond))
	if again, _ := a.Finish(t0.Add(9 * time.Second)); again != va {
		t.Fatalf("second Finish of the folded trace = %v, want %v", again, va)
	}
	vb, _ := b.Finish(t0.Add(4 * time.Second))
	late(t0.Add(5 * time.Second)) // and after the next trace folded too

	if got := segments(va, book); !reflect.DeepEqual(got, wantA) {
		t.Errorf("folded trace changed after late calls:\n got %+v\nwant %+v", got, wantA)
	}
	at := func(d time.Duration) time.Time { return time.Unix(0, t0.Add(d).UnixNano()).UTC() }
	wantB := []storedSeg{
		{Service: "client", Op: "b", Parent: -1, Start: at(3 * time.Second), End: at(4 * time.Second)},
		{Service: "kms", Op: "kms:Decrypt", Parent: 0, Start: at(3 * time.Second), End: at(3*time.Second + 5*time.Millisecond),
			Annos: []Annotation{{Key: "result", Value: "allow"}},
			Usage: []pricing.Usage{{Kind: pricing.KMSRequests, Quantity: 1, App: "b"}}},
		{Service: "iam", Op: "kms:Decrypt", Parent: 1, Start: at(3 * time.Second), End: at(3*time.Second + time.Millisecond)},
	}
	got := segments(vb, nil)
	if !reflect.DeepEqual(got, wantB) {
		t.Errorf("next trace's rows after late calls on the folded trace's spans:\n got %+v\nwant %+v", got, wantB)
	}
}
