package integration

import (
	"encoding/json"
	"testing"

	"repro/internal/apps/chat"
	"repro/internal/apps/email"
	"repro/internal/apps/filetransfer"
	"repro/internal/apps/iot"
	"repro/internal/core"
	"repro/internal/crypto/sealedbox"
	"repro/internal/pricing"
	"repro/internal/proto/xmpp"
	"repro/internal/spam"
)

// uncachedKeys runs an app with warm-container data-key caching off, so
// every unwrap its function makes is a KMS request on the meter: with
// caching on, a second unwrap in the same invocation would be free and
// unseen.
type uncachedKeys struct{ core.App }

func (a uncachedKeys) Spec() core.AppSpec {
	spec := a.App.Spec()
	spec.CacheDataKeys = false
	return spec
}

// TestKMSUnwrapsPerOp drives every op of the four stateful apps once,
// each on a fresh deployment, and pins the KMS requests (all of them
// kms:Decrypt unwraps of the deployment data key) the invocation
// metered: one for every op that touches sealed state, however many
// objects it reads, writes or notices it seals, and none for the ops
// that touch none. An op that unwrapped eagerly, or more than once,
// moves a count.
func TestKMSUnwrapsPerOp(t *testing.T) {
	stanza := func(st any) []byte {
		b, err := xmpp.Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	js := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	const jid = "alice@" + chat.Domain + "/phone"
	room := chat.App{Members: []string{"alice", "bob"}}
	table := chat.App{Members: []string{"alice", "bob"}, Backend: "dynamo"}
	mail := email.App{SpamFilter: spam.NewFilter()}
	pub, _, err := sealedbox.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	pgp := email.App{SpamFilter: spam.NewFilter(), RecipientPub: &pub}
	raw := []byte("From: bob@remote.net\r\nSubject: hi\r\n\r\nhello\r\n")
	cases := []struct {
		name string
		app  core.App
		op   string
		body []byte
		want float64
	}{
		{"chat/session", room, "stanza", stanza(&xmpp.IQ{Type: "set", ID: "s1", From: jid, Session: &xmpp.Session{}}), 0},
		{"chat/presence", room, "stanza", stanza(&xmpp.Presence{From: jid}), 1},
		{"chat/message", room, "stanza", stanza(&xmpp.Message{From: jid, Type: "groupchat", ID: "alice-1", Body: "hi"}), 1},
		{"chat/message (table)", table, "stanza", stanza(&xmpp.Message{From: jid, Type: "groupchat", ID: "alice-1", Body: "hi"}), 1},
		{"chat/history", room, "history", []byte("alice"), 1},
		{"chat/search", room, "search", js(chat.SearchRequest{Member: "alice", Query: "hi"}), 1},
		{"chat/roster", room, "roster", []byte("alice"), 1},
		{"email/inbound", mail, "inbound", raw, 1},
		{"email/list", mail, "list", nil, 1},
		{"email/fetch", mail, "fetch", []byte("1"), 1},
		{"email/delete", mail, "delete", []byte("1"), 1},
		{"email/send", mail, "send", js(email.SendRequest{To: []string{"bob@remote.net"}, Raw: raw}), 0},
		{"email/markspam", mail, "markspam", []byte("1"), 1},
		{"email/markham", mail, "markham", []byte("1"), 1},
		// PGP mode: bodies are sealed to the user's key, so fetch hands
		// over the stored box without the data key; the index is still
		// under it.
		{"email/inbound (PGP)", pgp, "inbound", raw, 1},
		{"email/list (PGP)", pgp, "list", nil, 1},
		{"email/fetch (PGP)", pgp, "fetch", []byte("1"), 0},
		{"email/delete (PGP)", pgp, "delete", []byte("1"), 1},
		{"filetransfer/upload", filetransfer.App{}, "upload", js(filetransfer.UploadRequest{Name: "a.bin", To: "bob", Data: []byte("payload")}), 1},
		{"filetransfer/list", filetransfer.App{}, "list", nil, 1},
		{"filetransfer/download", filetransfer.App{}, "download", []byte("a.bin"), 1},
		{"filetransfer/link", filetransfer.App{}, "link", []byte("a.bin"), 0},
		{"filetransfer/sweep", filetransfer.App{}, "sweep", nil, 1},
		{"iot/register", iot.App{}, "register", js(iot.Device{Name: "thermostat"}), 1},
		{"iot/command", iot.App{}, "command", js(iot.Command{Device: "thermostat", Action: "set"}), 1},
		{"iot/report", iot.App{}, "report", js(iot.Report{Device: "thermostat", Metrics: map[string]float64{"temperature_c": 20}}), 1},
		{"iot/dashboard", iot.App{}, "dashboard", nil, 1},
	}
	for _, c := range cases {
		cloud := newCloud(t)
		d, err := core.Install(cloud, "alice", uncachedKeys{c.app})
		if err != nil {
			t.Fatal(err)
		}
		before := cloud.Meter.Total(pricing.KMSRequests)
		resp, _, err := d.Invoke(d.ClientContext(), c.op, c.body)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := cloud.Meter.Total(pricing.KMSRequests) - before; got != c.want {
			t.Errorf("%s (status %d): %v KMS requests, want %v", c.name, resp.Status, got, c.want)
		}
	}
}
