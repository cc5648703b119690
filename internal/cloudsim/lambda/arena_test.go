package lambda

import (
	"bytes"
	"testing"
	"time"
)

// scratchAll takes one Scratch slice per size, fills the i-th with
// byte i+1, and checks that every slice still holds its own fill once
// all are filled: slices handed out in one invocation are disjoint.
// It returns each slice at its full capacity.
func scratchAll(t *testing.T, env *Env, sizes []int) [][]byte {
	t.Helper()
	var got [][]byte
	for i, n := range sizes {
		b := env.Scratch(n)
		if len(b) != 0 || cap(b) != n {
			t.Fatalf("Scratch(%d) = len %d cap %d, want len 0 cap %d", n, len(b), cap(b), n)
		}
		if !bytes.Equal(b[:n], make([]byte, n)) {
			t.Fatalf("Scratch(%d) handed out bytes that are not zero", n)
		}
		got = append(got, append(b, bytes.Repeat([]byte{byte(i + 1)}, n)...))
	}
	for i, b := range got {
		if !bytes.Equal(b, bytes.Repeat([]byte{byte(i + 1)}, len(b))) {
			t.Fatalf("Scratch slice %d was overwritten by a later one", i)
		}
	}
	return got
}

// Every arena byte an invocation was handed is zero once the
// invocation returns: in the buffer the container keeps and in each
// buffer the invocation outgrew. By the end of the second invocation
// the container keeps one buffer its invocations fit in, which the
// third and fourth both use.
func TestArenaZeroedAfterInvocation(t *testing.T) {
	for _, sizes := range [][]int{
		{100, 5000, 3, 0, 70000},
		{1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000},
	} {
		f := newFixture(t)
		var handed [][]byte
		var arenaLen []int
		f.register(t, Function{Name: "fn", Handler: func(env *Env, ev Event) (Response, error) {
			arenaLen = append(arenaLen, env.ArenaLen())
			handed = scratchAll(t, env, sizes)
			return Response{Status: 200}, nil
		}})
		ctx := f.ctx()
		var first []*byte
		for run := 0; run < 4; run++ {
			if _, _, err := f.platform.Invoke(ctx, "fn", Event{}); err != nil {
				t.Fatal(err)
			}
			first = append(first, &handed[0][0])
			for i, b := range handed {
				if !bytes.Equal(b, make([]byte, len(b))) {
					t.Fatalf("sizes %v, run %d: Scratch slice %d (%d bytes) not zeroed after the invocation", sizes, run, i, len(b))
				}
			}
		}
		need := 0
		for _, n := range sizes {
			need += n
		}
		if arenaLen[0] != 0 {
			t.Fatalf("sizes %v: cold invocation found a %d-byte arena, want none", sizes, arenaLen[0])
		}
		if arenaLen[2] < need || arenaLen[3] != arenaLen[2] || first[3] != first[2] {
			t.Fatalf("sizes %v: warm arenas %v: want one buffer of at least the %d bytes one invocation needs, kept", sizes, arenaLen[1:], need)
		}
	}
}

// A cold container starts with no arena: the first container, one
// started after the warm one went stale, and one started after a
// configuration change dropped the warm pool.
func TestArenaColdStartEmpty(t *testing.T) {
	f := newFixture(t)
	f.platform.SetWarmTTL(time.Minute)
	type seen struct {
		cold  bool
		arena int
	}
	var arenaLen int
	f.register(t, Function{Name: "fn", Handler: func(env *Env, ev Event) (Response, error) {
		arenaLen = env.ArenaLen()
		env.Scratch(4096)
		return Response{Status: 200}, nil
	}})
	ctx := f.ctx()
	invoke := func() seen {
		t.Helper()
		_, st, err := f.platform.Invoke(ctx, "fn", Event{})
		if err != nil {
			t.Fatal(err)
		}
		return seen{st.ColdStart, arenaLen}
	}
	if got := invoke(); !got.cold || got.arena != 0 {
		t.Fatalf("first invocation: %+v, want a cold start with no arena", got)
	}
	if got := invoke(); got.cold || got.arena < 4096 {
		t.Fatalf("second invocation: %+v, want a warm start with the first one's arena", got)
	}
	ctx.Cursor.Advance(10 * time.Minute)
	if got := invoke(); !got.cold || got.arena != 0 {
		t.Fatalf("after the warm TTL: %+v, want a cold start with no arena", got)
	}
	if err := f.platform.UpdateConfig("fn", map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	if got := invoke(); !got.cold || got.arena != 0 {
		t.Fatalf("after a config change: %+v, want a cold start with no arena", got)
	}
}
