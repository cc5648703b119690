package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// pb is a minimal protobuf encoder for hand-built profiles.
type pb struct{ b []byte }

func (e *pb) key(num, wire int) { e.b = binary.AppendUvarint(e.b, uint64(num<<3|wire)) }

func (e *pb) varint(num int, v uint64) {
	e.key(num, wireVarint)
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *pb) bytes(num int, b []byte) {
	e.key(num, wireBytes)
	e.b = binary.AppendUvarint(e.b, uint64(len(b)))
	e.b = append(e.b, b...)
}

// varints writes a repeated varint field packed, or one field per
// value, as runtime/pprof does for short lists.
func (e *pb) varints(num int, vs []uint64, packed bool) {
	if !packed {
		for _, v := range vs {
			e.varint(num, v)
		}
		return
	}
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	e.bytes(num, p)
}

// testProfile builds a two-value (samples, cpu) profile. funcs[i] is
// function i+1, placed at location i+1; a location may also inline
// further functions, listed innermost first.
type testSample struct {
	locs   []uint64
	cpu    int64
	labels map[string]string
}

func buildProfile(t *testing.T, funcs []string, inline map[uint64][]uint64, samples []testSample, gz bool) []byte {
	t.Helper()
	strs := []string{""}
	intern := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pb
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pb
		m.varint(1, intern(vt[0]))
		m.varint(2, intern(vt[1]))
		p.bytes(1, m.b)
	}
	for i, s := range samples {
		var m pb
		m.varints(1, s.locs, i%2 == 0)
		m.varints(2, []uint64{1, uint64(s.cpu)}, i%2 == 1)
		for k, v := range s.labels {
			var l pb
			l.varint(1, intern(k))
			l.varint(2, intern(v))
			m.bytes(3, l.b)
		}
		p.bytes(2, m.b)
	}
	for i := range funcs {
		id := uint64(i + 1)
		var loc pb
		loc.varint(1, id)
		for _, f := range append(inline[id], id) {
			var line pb
			line.varint(1, f)
			line.varint(2, 10)
			loc.bytes(4, line.b)
		}
		p.bytes(4, loc.b)
	}
	for i, f := range funcs {
		var fn pb
		fn.varint(1, uint64(i+1))
		fn.varint(2, intern(f))
		p.bytes(5, fn.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.varint(12, 10_000_000)
	if !gz {
		return p.b
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributionHandBuiltProfile(t *testing.T) {
	funcs := []string{
		"runtime.mallocgc",                           // 1
		"encoding/json.Marshal",                      // 2
		"repro/internal/apps/chat.(*handler).save",   // 3
		"repro/internal/fleet.simulateAccount.func2", // 4
		"runtime.gcDrain",                            // 5
		"runtime.gcBgMarkWorker",                     // 6
		"runtime.mcall",                              // 7
		"main.runPass",                               // 8
		"math/rand.(*rngSource).Seed",                // 9
		"repro/internal/workload.Profile",            // 10
		"repro/internal/proto/smtp.(*Server).handle", // 11
		"crypto/aes.encryptBlock",                    // 12
		"repro/internal/crypto/envelope.Seal",        // 13
		"runtime.goexit",                             // 14
		"repro/internal/cloudsim/sortutil.SortedKeys[go.shape.string,go.shape.int]", // 15
	}
	// Location 13 carries crypto/aes inlined into envelope.Seal.
	inline := map[uint64][]uint64{13: {12}}
	samples := []testSample{
		// Standard-library leaves land on the calling layer.
		{locs: []uint64{1, 2, 3, 4, 14}, cpu: 30, labels: map[string]string{"phase": "drain", "shard": "007"}},
		// GC worker: no module frame.
		{locs: []uint64{5, 6, 14}, cpu: 20},
		// No module frame, not GC.
		{locs: []uint64{7}, cpu: 10},
		{locs: []uint64{9, 10, 4, 14}, cpu: 7, labels: map[string]string{"phase": "install"}},
		// Harness time between timed sections.
		{locs: []uint64{2, 8}, cpu: 5, labels: map[string]string{untimedLabel: "untimed"}},
		// An internal package outside the ledger's rows.
		{locs: []uint64{11, 4}, cpu: 3, labels: map[string]string{"phase": "drain"}},
		// Inlined stdlib frame inside a module frame.
		{locs: []uint64{13, 3}, cpu: 4},
		// Generic instantiation.
		{locs: []uint64{15, 8}, cpu: 2},
		// The harness itself.
		{locs: []uint64{1, 8, 14}, cpu: 1},
	}
	for _, gz := range []bool{false, true} {
		p, err := parseProfile(buildProfile(t, funcs, inline, samples, gz))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.samples) != len(samples) {
			t.Fatalf("parsed %d samples, want %d", len(p.samples), len(samples))
		}
		if got := p.samples[6].stack; len(got) != 3 || got[0] != funcs[11] || got[1] != funcs[12] {
			t.Fatalf("inlined location expanded to %v", got)
		}
		vi, err := p.valueIndex("cpu")
		if err != nil {
			t.Fatal(err)
		}
		a := attribute(p, vi, func(s sample) bool { return s.labels[untimedLabel] == "" })
		want := map[string]int64{
			"apps.chat":         30,
			"gc":                20,
			"runtime":           10,
			"workload":          7,
			"other":             3,
			"crypto.envelope":   4,
			"cloudsim.sortutil": 2,
			"bench":             1,
		}
		var sum int64
		for l, v := range a.layer {
			if want[l] != v {
				t.Errorf("gz=%v layer %s = %d, want %d", gz, l, v, want[l])
			}
			if !knownLayers[l] {
				t.Errorf("layer %q is not a ledger row", l)
			}
			sum += v
		}
		if sum != a.total || a.total != 77 || a.samples != 8 {
			t.Errorf("layers sum to %d, total %d over %d samples; want 77 over 8", sum, a.total, a.samples)
		}
		wantLib := map[string]int64{"encoding_json": 30, "mallocgc": 31, "rand_seed": 7, "crypto": 4}
		for _, l := range libs {
			if a.lib[l.name] != wantLib[l.name] {
				t.Errorf("lib %s = %d, want %d", l.name, a.lib[l.name], wantLib[l.name])
			}
		}
		if a.phase["drain"] != 33 || a.phase["install"] != 7 || len(a.phase) != 2 {
			t.Errorf("phases = %v, want drain 33, install 7", a.phase)
		}
	}
}

func TestParseProfileRejectsMalformed(t *testing.T) {
	good := buildProfile(t, []string{"main.main"}, nil, []testSample{{locs: []uint64{1}, cpu: 1}}, false)
	for name, data := range map[string][]byte{
		"truncated":        good[:len(good)-3],
		"unknown location": buildProfile(t, []string{"main.main"}, nil, []testSample{{locs: []uint64{9}, cpu: 1}}, false),
		"bad wire type":    {0x0b},
	} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/apps/chat.(*App).updateRoom":                 "repro/internal/apps/chat",
		"repro/internal/fleet.runShards.func1.1":                     "repro/internal/fleet",
		"runtime.mallocgc":                                           "runtime",
		"main.main":                                                  "main",
		"type:.eq.repro/internal/cloudsim/metrics.key":               "repro/internal/cloudsim/metrics",
		"vendor/golang.org/x/crypto/chacha20.(*Cipher).XORKeyStream": "vendor/golang.org/x/crypto/chacha20",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
