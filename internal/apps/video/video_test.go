package video

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/ec2"
	"repro/internal/cloudsim/sim"
	"repro/internal/core"
	"repro/internal/pricing"
)

func newCall(t *testing.T) (*core.Cloud, *Call) {
	t.Helper()
	cloud, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	call, err := StartCall(cloud, "alice", "", cloud.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	return cloud, call
}

func TestFrameRelayFanOut(t *testing.T) {
	_, call := newCall(t)
	for _, p := range []string{"alice", "bob", "carol"} {
		if err := call.Join(p); err != nil {
			t.Fatal(err)
		}
	}
	frame := []byte("video-frame-0001")
	ctx := &sim.Context{Cursor: sim.NewCursor(clock.Epoch)}
	if err := call.SendFrame(ctx, "alice", frame); err != nil {
		t.Fatal(err)
	}
	if ctx.Cursor.Elapsed() == 0 {
		t.Fatal("frame relay consumed no simulated time")
	}
	for _, p := range []string{"bob", "carol"} {
		frames, err := call.RecvFrames(p)
		if err != nil || len(frames) != 1 || !bytes.Equal(frames[0], frame) {
			t.Fatalf("%s received %v, %v", p, frames, err)
		}
	}
	// The sender gets nothing back.
	own, _ := call.RecvFrames("alice")
	if len(own) != 0 {
		t.Fatal("sender received own frame")
	}
	in, out := call.TrafficBytes()
	if in != int64(len(frame)) || out != 2*int64(len(frame)) {
		t.Fatalf("traffic in=%d out=%d", in, out)
	}
}

func TestJoinLeaveSemantics(t *testing.T) {
	_, call := newCall(t)
	if err := call.Join("alice"); err != nil {
		t.Fatal(err)
	}
	if err := call.Join("alice"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup join: %v", err)
	}
	if err := call.SendFrame(nil, "stranger", []byte("x")); !errors.Is(err, ErrNotParticipant) {
		t.Fatalf("stranger send: %v", err)
	}
	if _, err := call.RecvFrames("stranger"); !errors.Is(err, ErrNotParticipant) {
		t.Fatalf("stranger recv: %v", err)
	}
	call.Leave("alice")
	if call.Participants() != 0 {
		t.Fatal("leave did not remove participant")
	}
}

func TestHourLongHDCallCostsElevenCents(t *testing.T) {
	// §6.1/§9: "a single hour-long HD call will cost roughly $0.11".
	book := pricing.Default2017()
	cost := CostOfCall(book, DefaultInstanceType, time.Hour, HDCallBandwidthMbps)
	if got := cost.RoundCents(); got != pricing.FromDollars(0.11) {
		t.Fatalf("hour-long HD call = %v, want $0.11", got)
	}
}

func TestSimulatedCallBilling(t *testing.T) {
	cloud, call := newCall(t)
	if err := call.Simulate(15*time.Minute, HDCallBandwidthMbps); err != nil {
		t.Fatal(err)
	}
	if err := call.End(cloud.Clock.Now()); err != nil {
		t.Fatal(err)
	}
	// 15 minutes of t2.medium.
	if secs := cloud.Meter.Total(pricing.EC2Seconds); secs != 900 {
		t.Fatalf("billed %v VM seconds, want 900", secs)
	}
	// Half of 3 Mbps × 900 s = ~169 MB outbound.
	out := cloud.Meter.Total(pricing.TransferOutGB)
	if out < 0.16 || out > 0.18 {
		t.Fatalf("outbound transfer %v GB, want ≈0.169", out)
	}
	// The clock advanced with the call.
	if got := cloud.Clock.Now().Sub(clock.Epoch); got != 15*time.Minute {
		t.Fatalf("clock advanced %v", got)
	}
}

func TestEndSemantics(t *testing.T) {
	cloud, call := newCall(t)
	call.Join("alice")
	if err := call.End(cloud.Clock.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := call.End(cloud.Clock.Now()); !errors.Is(err, ErrEnded) {
		t.Fatalf("double end: %v", err)
	}
	if err := call.Join("bob"); !errors.Is(err, ErrEnded) {
		t.Fatalf("join after end: %v", err)
	}
	if err := call.SendFrame(nil, "alice", []byte("x")); !errors.Is(err, ErrEnded) {
		t.Fatalf("send after end: %v", err)
	}
	if err := call.Simulate(time.Minute, 1); !errors.Is(err, ErrEnded) {
		t.Fatalf("simulate after end: %v", err)
	}
	if cloud.EC2.Running(call.inst.ID) {
		t.Fatal("relay VM survived call end")
	}
}

func TestNoFailoverDuringOutage(t *testing.T) {
	cloud, call := newCall(t)
	call.Join("alice")
	call.Join("bob")
	cloud.Model.SetOutage(cloud.Region, true)
	err := call.SendFrame(nil, "alice", []byte("x"))
	if !errors.Is(err, ec2.ErrRegionDown) {
		t.Fatalf("send during outage: %v", err)
	}
}

func TestStartCallUnknownType(t *testing.T) {
	cloud, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartCall(cloud, "alice", "t9.exotic", cloud.Clock.Now()); err == nil {
		t.Fatal("unknown instance type accepted")
	}
}
