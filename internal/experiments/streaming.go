package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
)

// StreamingPoint is one hosting mode in the §8.3 comparison: how much
// compute a one-hour interactive session bills under each model.
type StreamingPoint struct {
	Mode string
	// BilledCompute is the billed container-attached time.
	BilledCompute time.Duration
	// GBSeconds and Cost price the session's compute without free-tier
	// credit (memory 128 MB).
	GBSeconds float64
	Cost      pricing.Money
	// MedLatency is the median per-message service latency.
	MedLatency time.Duration
}

// RunStreamingComparison models a one-hour interactive session with
// the given number of uniformly spaced messages (default 6 — sparse
// enough that gaps exceed the 5-minute warm pool, the regime §8.3
// cares about) under three hosting modes:
//
//   - "per-request": today's serverless model — each message is an
//     independent invocation (dispatch + possible cold start);
//   - "open-connection": a TCP connection held by an always-attached
//     container ("the function is billed while the ... request is
//     active"), the behaviour §8.3 complains about;
//   - "suspend/resume": the Picocenter-style extension — the container
//     swaps out between messages, billing only active slivers.
func RunStreamingComparison(messages int) ([]StreamingPoint, error) {
	if messages <= 0 {
		messages = 6
	}
	const memMB = 128
	session := time.Hour
	gap := session / time.Duration(messages)
	book := pricing.Default2017()

	handler := func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
		env.Compute(20 * time.Millisecond)
		return lambda.Response{Status: 200}, nil
	}

	newPlatform := func() (*lambda.Platform, *pricing.Meter) {
		meter := pricing.NewMeter()
		p := lambda.New(meter, netsim.NewDefaultModel(), clock.NewVirtual(), nil, nil)
		if err := p.RegisterFunction(lambda.Function{Name: "fn", MemoryMB: memMB, Handler: handler}); err != nil {
			panic(err)
		}
		return p, meter
	}

	price := func(meter *pricing.Meter) (float64, pricing.Money) {
		gbs := meter.Total(pricing.LambdaGBSeconds)
		reqs := meter.Total(pricing.LambdaRequests)
		cost := book.LambdaPerGBSecond.MulFloat(gbs) +
			book.LambdaPerMillionRequests.MulFloat(reqs/1e6)
		return gbs, cost
	}

	var out []StreamingPoint

	// Mode 1: per-request invocations.
	{
		p, meter := newPlatform()
		ctx := &sim.Context{Cursor: sim.NewCursor(clock.Epoch)}
		var billed time.Duration
		var lats []time.Duration
		for i := 0; i < messages; i++ {
			ctx.Cursor.Advance(gap)
			before := ctx.Cursor.Elapsed()
			_, stats, err := p.Invoke(ctx, "fn", lambda.Event{})
			if err != nil {
				return nil, err
			}
			billed += stats.BilledTime
			lats = append(lats, ctx.Cursor.Elapsed()-before)
		}
		gbs, cost := price(meter)
		out = append(out, StreamingPoint{
			Mode: "per-request", BilledCompute: billed,
			GBSeconds: gbs, Cost: cost, MedLatency: median(lats),
		})
	}

	// Mode 2: open connection, never suspended (suspend threshold
	// beyond the session length).
	{
		p, meter := newPlatform()
		ctx := &sim.Context{Cursor: sim.NewCursor(clock.Epoch)}
		conn, err := p.OpenConnection(ctx, "fn", 2*session)
		if err != nil {
			return nil, err
		}
		var lats []time.Duration
		for i := 0; i < messages; i++ {
			ctx.Cursor.Advance(gap)
			before := ctx.Cursor.Elapsed()
			if _, err := conn.Send(ctx, lambda.Event{}); err != nil {
				return nil, err
			}
			lats = append(lats, ctx.Cursor.Elapsed()-before)
		}
		stats, err := conn.Close(ctx.Cursor.Now())
		if err != nil {
			return nil, err
		}
		gbs, cost := price(meter)
		out = append(out, StreamingPoint{
			Mode: "open-connection", BilledCompute: stats.BilledActive,
			GBSeconds: gbs, Cost: cost, MedLatency: median(lats),
		})
	}

	// Mode 3: the suspend/resume extension.
	{
		p, meter := newPlatform()
		ctx := &sim.Context{Cursor: sim.NewCursor(clock.Epoch)}
		conn, err := p.OpenConnection(ctx, "fn", lambda.DefaultSuspendAfter)
		if err != nil {
			return nil, err
		}
		var lats []time.Duration
		for i := 0; i < messages; i++ {
			ctx.Cursor.Advance(gap)
			before := ctx.Cursor.Elapsed()
			if _, err := conn.Send(ctx, lambda.Event{}); err != nil {
				return nil, err
			}
			lats = append(lats, ctx.Cursor.Elapsed()-before)
		}
		stats, err := conn.Close(ctx.Cursor.Now())
		if err != nil {
			return nil, err
		}
		gbs, cost := price(meter)
		out = append(out, StreamingPoint{
			Mode: "suspend/resume", BilledCompute: stats.BilledActive,
			GBSeconds: gbs, Cost: cost, MedLatency: median(lats),
		})
	}
	return out, nil
}

// RenderStreaming prints the comparison.
func RenderStreaming(points []StreamingPoint) string {
	var sb strings.Builder
	sb.WriteString("Extension (§8.3): hosting a 1-hour interactive TCP session with sparse traffic\n")
	fmt.Fprintf(&sb, "  %-16s %14s %12s %12s %12s\n", "Mode", "BilledCompute", "GB-s", "Cost", "MedLatency")
	for _, p := range points {
		fmt.Fprintf(&sb, "  %-16s %14v %12.2f %12s %12v\n",
			p.Mode, p.BilledCompute.Round(10*time.Millisecond), p.GBSeconds, p.Cost,
			p.MedLatency.Round(time.Millisecond))
	}
	return sb.String()
}
