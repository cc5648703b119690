package chat

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cloudsim/sim"
	"repro/internal/core"
)

// historyDigest is the SHA-256 of the history response
// TestHistoryAcrossChunks builds, as the code wrote it before room
// documents and archived chunks were opened into the container arena.
const historyDigest = "b003b437b8c3eaba58778cb57ce368d8c8412e987325fb1af1f6dafdf526aea3"

// TestHistoryAcrossChunks reads a history that spans three archived
// chunks and the live tail on both state backends. The history op
// holds the room document's kept tail open while it opens each chunk,
// so several opened plaintexts are live in one invocation; the
// response must be the same bytes on both backends, on a warm repeat,
// and as before the arena.
func TestHistoryAcrossChunks(t *testing.T) {
	for _, backend := range []string{"s3", "dynamo"} {
		cloud, err := core.NewCloud(core.CloudOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := Install(cloud, "alice", App{Members: []string{"alice", "bob"}, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		clients := []*Client{session(t, d, "alice"), session(t, d, "bob")}
		for i := 0; i < 40; i++ {
			body := fmt.Sprintf("%03d <%s> \"quoted\" & café ", i, clients[i%2].member) + strings.Repeat(string(rune('a'+i%26)), 5000)
			if _, err := clients[i%2].Send(body); err != nil {
				t.Fatal(err)
			}
		}
		if !chunkStored(t, cloud, d, backend, "history/000002") {
			t.Fatalf("%s: fewer than three archived chunks", backend)
		}
		for run := 0; run < 2; run++ {
			resp, _, err := d.Invoke(clients[1].ctx(), "history", []byte("bob"))
			if err != nil || resp.Status != 200 {
				t.Fatalf("%s: history: status %d, %v", backend, resp.Status, err)
			}
			sum := sha256.Sum256(resp.Body)
			if got := hex.EncodeToString(sum[:]); got != historyDigest {
				t.Fatalf("%s, run %d: history digest %s, want %s", backend, run, got, historyDigest)
			}
		}
	}
}

// chunkStored reports whether the archived chunk name exists in the
// backend's store.
func chunkStored(t *testing.T, cloud *core.Cloud, d *core.Deployment, backend, name string) bool {
	t.Helper()
	admin := &sim.Context{Principal: d.Role}
	if backend == "dynamo" {
		_, err := cloud.Dynamo.Get(admin, d.Table, name)
		return err == nil
	}
	_, err := cloud.S3.Get(admin, d.Bucket, name)
	return err == nil
}
