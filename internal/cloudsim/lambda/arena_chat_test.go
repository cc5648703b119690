package lambda_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/chat"
	"repro/internal/cloudsim/lambda"
	"repro/internal/core"
)

// TestArenaAcrossChatHistory drives a chat room the way chat's
// TestHistoryAcrossChunks does (40 sends of 5 KB, which archive three
// chunks, then history reads) and watches the container arena after
// each invocation. On the send path the growing room doc regrows the
// arena with headroom, so it takes at most 8 buffers (11 when each
// regrowth fit the need exactly, about one per 5 KB send); after two
// history reads need the whole archive at once, 40 more sends give
// that memory back, to no more than the send path's own arena (it was
// kept at the archive's 200 KB for the container's warm life).
func TestArenaAcrossChatHistory(t *testing.T) {
	cloud, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := chat.Install(cloud, "alice", chat.App{Members: []string{"alice", "bob"}, Backend: "s3"})
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := cloud.Lambda.Function(d.FnName)
	var lens []int
	var bases []*byte
	if err := cloud.Lambda.ReplaceCode(d.FnName, fn.Code, func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
		resp, err := fn.Handler(env, ev)
		lens, bases = append(lens, env.ArenaLen()), append(bases, env.ArenaBase())
		return resp, err
	}); err != nil {
		t.Fatal(err)
	}
	clients := []*chat.Client{chat.NewClient(d, "alice", "test"), chat.NewClient(d, "bob", "test")}
	for _, c := range clients {
		if _, err := c.Session(); err != nil {
			t.Fatal(err)
		}
	}
	send := func(i int) {
		t.Helper()
		body := fmt.Sprintf("%03d ", i) + strings.Repeat(string(rune('a'+i%26)), 5000)
		if _, err := clients[i%2].Send(body); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 40; i++ {
		send(i)
	}
	var buffers []*byte
	for _, b := range bases {
		if b != nil && !slices.Contains(buffers, b) {
			buffers = append(buffers, b)
		}
	}
	if len(buffers) == 0 || len(buffers) > 8 {
		t.Errorf("send path used %d arena buffers over 40 sends (lengths %v), want 1 to 8", len(buffers), lens)
	}
	sendArena := lens[len(lens)-1]

	lens = lens[:0]
	for run := 0; run < 2; run++ {
		resp, _, err := d.Invoke(d.ClientContext(), "history", []byte("bob"))
		if err != nil || resp.Status != 200 {
			t.Fatalf("history: status %d, %v", resp.Status, err)
		}
	}
	for i := 40; i < 80; i++ {
		send(i)
	}
	if lens[0] < 2*sendArena {
		t.Fatalf("history read left a %d-byte arena, want one well past the send path's %d", lens[0], sendArena)
	}
	if last := lens[len(lens)-1]; last > sendArena {
		t.Errorf("after the history reads and 40 sends the arena is %d bytes, want at most the send path's %d (lengths %v)", last, sendArena, lens)
	}
}
