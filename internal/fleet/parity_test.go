package fleet

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/chat"
	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/netsim"
	"repro/internal/core"
	"repro/internal/workload"
)

// TestIdenticalSeedsIdenticalLedgers is the per-account isolation
// property: two accounts given the same seed (and so the same profile
// and the same derived netsim/arrival/payload streams) produce
// bit-identical metered ledgers, even though they ran as separate
// members of one fleet — possibly on different workers.
func TestIdenticalSeedsIdenticalLedgers(t *testing.T) {
	shared := workload.Profile(42, 7) // an arbitrary concrete profile
	res, err := Run(Config{
		Accounts:       2,
		Span:           20 * time.Minute,
		CaptureLedgers: true,
		Profile: func(base int64, index int) workload.AccountProfile {
			p := shared
			p.Index = index // only the fleet position differs
			return p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.PerAccount[0], res.PerAccount[1]
	if a.Ledger == "" || b.Ledger == "" {
		t.Fatal("CaptureLedgers did not populate ledgers")
	}
	if a.Ledger != b.Ledger {
		t.Fatalf("identically-seeded accounts diverged:\n%s",
			firstDiffLine(a.Ledger, b.Ledger))
	}
	if a.Requests != b.Requests || a.ColdStarts != b.ColdStarts || a.MonthlyCost != b.MonthlyCost {
		t.Errorf("stats diverged: %+v vs %+v", a, b)
	}
}

// TestOneAccountFleetMatchesStandalone pins the refactor's core
// promise: wrapping an account in the fleet machinery (shared
// immutable bundle, per-account replay loop, shard scheduler) changes
// nothing about what the account meters. A 1-account fleet's ledger
// must be bit-identical to driving the same workload by hand against
// a plain core.NewCloud.
func TestOneAccountFleetMatchesStandalone(t *testing.T) {
	prof := workload.AccountProfile{
		Index:          0,
		Kind:           workload.KindChat,
		Seed:           workload.AccountSeed(9, 0),
		RequestsPerDay: 800,
		BodyBytes:      200,
	}
	span := 25 * time.Minute

	res, err := Run(Config{
		Accounts:       1,
		Span:           span,
		Seed:           9,
		CaptureLedgers: true,
		Profile:        func(base int64, index int) workload.AccountProfile { return prof },
	})
	if err != nil {
		t.Fatal(err)
	}
	fleetLedger := res.PerAccount[0].Ledger

	// Standalone replica: no Shared bundle, no fleet scheduler — the
	// historical construction path, driven by explicit Clock.Set calls.
	params := netsim.DefaultParams()
	params.Seed = workload.Substream(prof.Seed, "netsim")
	cloud, err := core.NewCloud(core.CloudOptions{
		Name:                 "standalone",
		NetParams:            &params,
		DisableObservability: true,
		DisableLogging:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := chat.Install(cloud, "op", chat.App{
		Members:  []string{"owner", "peer"},
		MemoryMB: 448,
	})
	if err != nil {
		t.Fatal(err)
	}
	owner := chat.NewClient(d, "owner", "laptop")
	peer := chat.NewClient(d, "peer", "phone")
	if _, err := owner.Session(); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Session(); err != nil {
		t.Fatal(err)
	}

	payload := rand.New(rand.NewSource(workload.Substream(prof.Seed, "payload")))
	arrivals := workload.NewPoisson(
		workload.Substream(prof.Seed, "arrivals"),
		prof.RequestsPerDay,
		cloud.Clock.Now(),
	)
	end := clock.Epoch.Add(span)
	for at := arrivals.Next(); at.Before(end); at = arrivals.Next() {
		cloud.Clock.Set(at)
		n := prof.BodyBytes/2 + payload.Intn(prof.BodyBytes)
		if _, err := owner.Send(strings.Repeat("x", n)); err != nil {
			t.Fatal(err)
		}
		pollCtx := peer.PollContext(at)
		msgs, err := peer.Receive(pollCtx, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 1 {
			t.Fatalf("got %d messages, want 1", len(msgs))
		}
	}
	cloud.Clock.Set(end)
	standalone := renderLedger(cloud.Meter)

	if fleetLedger != standalone {
		t.Fatalf("1-account fleet ledger diverged from standalone run:\n%s",
			firstDiffLine(fleetLedger, standalone))
	}
}
