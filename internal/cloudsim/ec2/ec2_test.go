package ec2

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/pricing"
)

type fixture struct {
	meter *pricing.Meter
	clk   *clock.Virtual
	ec2   *Service
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{meter: pricing.NewMeter(), clk: clock.NewVirtual()}
	f.ec2 = New(f.meter, f.clk)
	return f
}

func TestLaunchUnknownType(t *testing.T) {
	f := newFixture(t)
	if _, err := f.ec2.Launch("t9.mega", "us-west-2", "x", clock.Epoch); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("got %v, want ErrUnknownType", err)
	}
}

func TestPerSecondBilling(t *testing.T) {
	// The paper's §6.1: a 15-minute t2.medium call billed per second.
	f := newFixture(t)
	inst, err := f.ec2.Launch("t2.medium", "us-west-2", "video", clock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	end := clock.Epoch.Add(15 * time.Minute)
	if err := f.ec2.Terminate(inst.ID, end); err != nil {
		t.Fatal(err)
	}
	if got := f.meter.Total(pricing.EC2Seconds); got != 900 {
		t.Fatalf("billed %v seconds, want 900", got)
	}
	by := f.meter.ByResource(pricing.EC2Seconds)
	if by["t2.medium"] != 900 {
		t.Fatalf("per-type seconds = %v", by)
	}
	// Priced: 0.25 h × $0.0464 ≈ $0.0116 — the paper's "$0.01" compute.
	bill := pricing.Compute(pricing.Default2017(), f.meter)
	if got := bill.Total().RoundCents(); got != pricing.FromDollars(0.01) {
		t.Fatalf("15-min t2.medium = %v, want $0.01", got)
	}
}

func TestMonthLongNanoMatchesTable1(t *testing.T) {
	// Table 1 compute row: a t2.nano running the whole month = $4.32.
	f := newFixture(t)
	inst, _ := f.ec2.Launch("t2.nano", "us-west-2", "email", clock.Epoch)
	f.ec2.Accrue(inst.ID, clock.Epoch.Add(pricing.Month))
	bill := pricing.Compute(pricing.Default2017(), f.meter)
	if got := bill.Total().RoundCents(); got != pricing.FromDollars(4.32) {
		t.Fatalf("month of t2.nano = %v, want $4.32", got)
	}
}

func TestAccrueIdempotentOverTime(t *testing.T) {
	f := newFixture(t)
	inst, _ := f.ec2.Launch("t2.nano", "us-west-2", "x", clock.Epoch)
	mid := clock.Epoch.Add(time.Hour)
	f.ec2.Accrue(inst.ID, mid)
	f.ec2.Accrue(inst.ID, mid) // same instant: no double billing
	f.ec2.Accrue(inst.ID, clock.Epoch)
	if got := f.meter.Total(pricing.EC2Seconds); got != 3600 {
		t.Fatalf("billed %v, want 3600", got)
	}
	f.ec2.Accrue(inst.ID, mid.Add(time.Hour))
	if got := f.meter.Total(pricing.EC2Seconds); got != 7200 {
		t.Fatalf("billed %v, want 7200", got)
	}
}

func TestTerminateLifecycle(t *testing.T) {
	f := newFixture(t)
	inst, _ := f.ec2.Launch("t2.nano", "us-west-2", "x", clock.Epoch)
	if !f.ec2.Running(inst.ID) {
		t.Fatal("instance not running after launch")
	}
	f.ec2.Terminate(inst.ID, clock.Epoch.Add(time.Second))
	if f.ec2.Running(inst.ID) {
		t.Fatal("instance running after terminate")
	}
	if err := f.ec2.Terminate(inst.ID, clock.Epoch); !errors.Is(err, ErrNoSuchInstance) {
		t.Fatalf("double terminate: %v", err)
	}
	if err := f.ec2.Accrue(inst.ID, clock.Epoch); !errors.Is(err, ErrNoSuchInstance) {
		t.Fatalf("accrue after terminate: %v", err)
	}
}

func TestMeterTransferOut(t *testing.T) {
	f := newFixture(t)
	f.ec2.MeterTransferOut("video", 1_350_000_000) // 1.35 GB relay hour
	if got := f.meter.Total(pricing.TransferOutGB); math.Abs(got-1.35) > 1e-9 {
		t.Fatalf("transfer = %v GB, want 1.35", got)
	}
}

func TestCatalogSizes(t *testing.T) {
	// The paper calls out the t2.medium's 4 GB of RAM.
	if Catalog["t2.medium"].MemoryMB != 4096 {
		t.Fatalf("t2.medium memory = %d", Catalog["t2.medium"].MemoryMB)
	}
	if Catalog["t2.nano"].MemoryMB != 512 {
		t.Fatalf("t2.nano memory = %d", Catalog["t2.nano"].MemoryMB)
	}
}
