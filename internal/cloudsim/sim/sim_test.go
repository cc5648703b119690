package sim

import (
	"testing"
	"time"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func TestCursorAdvance(t *testing.T) {
	c := NewCursor(t0)
	c.Advance(50 * time.Millisecond)
	c.Advance(25 * time.Millisecond)
	if got, want := c.Elapsed(), 75*time.Millisecond; got != want {
		t.Fatalf("Elapsed() = %v, want %v", got, want)
	}
	if !c.Start().Equal(t0) {
		t.Fatalf("Start() = %v, want %v", c.Start(), t0)
	}
}

func TestCursorAdvanceNegativeIgnored(t *testing.T) {
	c := NewCursor(t0)
	c.Advance(-time.Second)
	if c.Elapsed() != 0 {
		t.Fatalf("negative advance changed elapsed to %v", c.Elapsed())
	}
}

func TestCursorAdvanceTo(t *testing.T) {
	c := NewCursor(t0)
	moved := c.AdvanceTo(t0.Add(time.Second))
	if moved != time.Second {
		t.Fatalf("AdvanceTo moved %v, want 1s", moved)
	}
	// Moving to an earlier instant is a no-op.
	if moved := c.AdvanceTo(t0); moved != 0 {
		t.Fatalf("AdvanceTo(earlier) moved %v, want 0", moved)
	}
	if got := c.Now(); !got.Equal(t0.Add(time.Second)) {
		t.Fatalf("Now() = %v, want %v", got, t0.Add(time.Second))
	}
}

func TestCursorFork(t *testing.T) {
	c := NewCursor(t0)
	c.Advance(time.Minute)
	// A concurrent flow forks as a new cursor at the parent's now.
	f := NewCursor(c.Now())
	if !f.Start().Equal(c.Now()) {
		t.Fatalf("Fork start = %v, want parent now %v", f.Start(), c.Now())
	}
	f.Advance(time.Second)
	if c.Elapsed() != time.Minute {
		t.Fatalf("advancing fork moved parent: elapsed %v", c.Elapsed())
	}
}

func TestContextAdvanceNilSafe(t *testing.T) {
	var ctx *Context
	ctx.Advance(time.Second) // must not panic
	if !ctx.Now().IsZero() {
		t.Fatalf("nil context Now() = %v, want zero", ctx.Now())
	}
	ctx2 := &Context{}
	ctx2.Advance(time.Second) // nil cursor: must not panic
	if !ctx2.Now().IsZero() {
		t.Fatalf("cursorless context Now() = %v, want zero", ctx2.Now())
	}
}

func TestContextAdvance(t *testing.T) {
	ctx := &Context{Cursor: NewCursor(t0)}
	ctx.Advance(time.Second)
	if got := ctx.Now(); !got.Equal(t0.Add(time.Second)) {
		t.Fatalf("Now() = %v, want %v", got, t0.Add(time.Second))
	}
}

func TestWithPrincipal(t *testing.T) {
	base := &Context{Principal: "a", Region: "us-west-2", Cursor: NewCursor(t0)}
	derived := base.WithPrincipal("b")
	if derived.Principal != "b" || base.Principal != "a" {
		t.Fatalf("WithPrincipal mutated wrong context: base=%q derived=%q", base.Principal, derived.Principal)
	}
	if derived.Cursor != base.Cursor {
		t.Fatal("WithPrincipal must share the cursor (same causal flow)")
	}
	if derived.Region != base.Region {
		t.Fatal("WithPrincipal must preserve region")
	}
}

func TestContextString(t *testing.T) {
	var nilCtx *Context
	if nilCtx.String() != "sim.Context(nil)" {
		t.Fatalf("nil String() = %q", nilCtx.String())
	}
	ctx := &Context{Principal: "p", Region: "r"}
	if got := ctx.String(); got != `sim.Context{principal="p" region="r"}` {
		t.Fatalf("String() = %q", got)
	}
}
