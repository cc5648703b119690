package pricing

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestMeterTotals(t *testing.T) {
	m := NewMeter()
	m.Add(Usage{Kind: LambdaRequests, Quantity: 10, App: "chat"})
	m.Add(Usage{Kind: LambdaRequests, Quantity: 5, App: "email"})
	m.Add(Usage{Kind: SQSRequests, Quantity: 7, App: "chat"})
	if got := m.Total(LambdaRequests); got != 15 {
		t.Fatalf("Total = %v, want 15", got)
	}
	if got := m.TotalFor(LambdaRequests, "chat"); got != 10 {
		t.Fatalf("TotalFor(chat) = %v, want 10", got)
	}
	if got := m.TotalFor(LambdaRequests, "absent"); got != 0 {
		t.Fatalf("TotalFor(absent) = %v, want 0", got)
	}
}

func TestMeterIgnoresNonPositive(t *testing.T) {
	m := NewMeter()
	m.Add(Usage{Kind: LambdaRequests, Quantity: 0})
	m.Add(Usage{Kind: LambdaRequests, Quantity: -5})
	if len(m.Snapshot()) != 0 || m.Total(LambdaRequests) != 0 {
		t.Fatal("non-positive quantities must be ignored")
	}
}

func TestMeterByResource(t *testing.T) {
	m := NewMeter()
	m.Add(Usage{Kind: EC2Seconds, Quantity: 100, Resource: "t2.nano"})
	m.Add(Usage{Kind: EC2Seconds, Quantity: 50, Resource: "t2.nano"})
	m.Add(Usage{Kind: EC2Seconds, Quantity: 30, Resource: "t2.medium"})
	by := m.ByResource(EC2Seconds)
	if by["t2.nano"] != 150 || by["t2.medium"] != 30 {
		t.Fatalf("ByResource = %v", by)
	}
}

func TestMeterApps(t *testing.T) {
	m := NewMeter()
	m.Add(Usage{Kind: LambdaRequests, Quantity: 1, App: "zeta"})
	m.Add(Usage{Kind: LambdaRequests, Quantity: 1, App: "alpha"})
	m.Add(Usage{Kind: LambdaRequests, Quantity: 1}) // unattributed
	var apps []string
	for _, u := range m.Snapshot() {
		apps = append(apps, u.App)
	}
	if len(apps) != 3 || apps[0] != "" || apps[1] != "alpha" || apps[2] != "zeta" {
		t.Fatalf("Snapshot apps = %q, want [\"\" alpha zeta]", apps)
	}
}

func TestMeterReset(t *testing.T) {
	m := NewMeter()
	m.Add(Usage{Kind: LambdaRequests, Quantity: 1})
	m.Reset()
	if m.Total(LambdaRequests) != 0 || len(m.Snapshot()) != 0 {
		t.Fatal("Reset did not clear the meter")
	}
}

func TestMeterSnapshotSorted(t *testing.T) {
	m := NewMeter()
	m.Add(Usage{Kind: SQSRequests, Quantity: 1, App: "b"})
	m.Add(Usage{Kind: LambdaRequests, Quantity: 2, App: "a"})
	m.Add(Usage{Kind: LambdaRequests, Quantity: 3, App: "b"})
	snap := m.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	if snap[0].Kind != LambdaRequests || snap[0].App != "a" {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	const workers, adds = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < adds; j++ {
				m.Add(Usage{Kind: LambdaRequests, Quantity: 1})
			}
		}()
	}
	wg.Wait()
	if got := m.Total(LambdaRequests); got != workers*adds {
		t.Fatalf("concurrent total = %v, want %d", got, workers*adds)
	}
}

func TestMeterAdditivityProperty(t *testing.T) {
	// Property: metering quantities one at a time equals metering
	// their sum (for positive quantities).
	f := func(quantities []uint16) bool {
		a, b := NewMeter(), NewMeter()
		var sum float64
		for _, q := range quantities {
			v := float64(q) + 1 // strictly positive
			a.Add(Usage{Kind: TransferOutGB, Quantity: v})
			sum += v
		}
		b.Add(Usage{Kind: TransferOutGB, Quantity: sum})
		return math.Abs(a.Total(TransferOutGB)-b.Total(TransferOutGB)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeTierMonotonicProperty(t *testing.T) {
	// Property: a bill never decreases when usage increases.
	book := Default2017()
	f := func(r1, r2 uint32) bool {
		lo, hi := float64(r1%5_000_000), float64(r2%5_000_000)
		if lo > hi {
			lo, hi = hi, lo
		}
		ml, mh := NewMeter(), NewMeter()
		ml.Add(Usage{Kind: LambdaRequests, Quantity: lo})
		mh.Add(Usage{Kind: LambdaRequests, Quantity: hi})
		return Compute(book, mh).Total() >= Compute(book, ml).Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
