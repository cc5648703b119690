// Package video implements the paper's private video conferencing
// service (§6.1): "A video conferencing service is similar in design
// to a text-based chat service, but has stricter delay requirements
// and more demanding throughput requirements. ... Since Lambda does
// not support multiple connections yet, we use a t2.medium EC2
// instance (with 4GB of RAM), which is billed per second."
//
// A Call launches a relay VM, fans every participant's frames out to
// the other participants, and accounts per-second compute plus
// outbound transfer. Simulate models a steady call (the paper's
// 3 Mbps HD stream) without per-frame calls, for the cost analysis.
package video

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cloudsim/ec2"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/sim"
	"repro/internal/core"
	"repro/internal/pricing"
)

// HDCallBandwidthMbps is Skype's recommended bandwidth for HD video
// calls, the paper's sizing assumption.
const HDCallBandwidthMbps = 3.0

// DefaultInstanceType is the paper's relay host.
const DefaultInstanceType = "t2.medium"

// AppName labels metered usage.
const AppName = "video"

// Errors returned by calls.
var (
	ErrEnded          = errors.New("video: call has ended")
	ErrNotParticipant = errors.New("video: unknown participant")
	ErrDuplicate      = errors.New("video: participant already joined")
)

// Call is one private conference on a dedicated relay VM.
type Call struct {
	cloud *core.Cloud
	user  string
	inst  *ec2.Instance

	mu           sync.Mutex
	participants map[string][][]byte // name -> pending frames
	bytesIn      int64
	bytesOut     int64
	started      time.Time
	ended        bool
}

// StartCall launches a relay VM for the user at the given simulated
// instant.
func StartCall(cloud *core.Cloud, user, instanceType string, at time.Time) (*Call, error) {
	if instanceType == "" {
		instanceType = DefaultInstanceType
	}
	c := &Call{
		cloud:        cloud,
		user:         user,
		participants: make(map[string][][]byte),
		started:      at,
	}
	inst, err := cloud.EC2.Launch(instanceType, cloud.Region, AppName, at)
	if err != nil {
		return nil, fmt.Errorf("video: starting call: %w", err)
	}
	c.inst = inst
	return c, nil
}

// Join adds a participant.
func (c *Call) Join(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ended {
		return ErrEnded
	}
	if _, dup := c.participants[name]; dup {
		return ErrDuplicate
	}
	c.participants[name] = nil
	return nil
}

// Leave removes a participant, dropping undelivered frames.
func (c *Call) Leave(name string) {
	c.mu.Lock()
	delete(c.participants, name)
	c.mu.Unlock()
}

// Participants reports who is on the call.
func (c *Call) Participants() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.participants)
}

// SendFrame relays one media frame from a participant to everyone
// else. The relay region must be up — there is no failover, the
// paper's availability caveat for VM hosting.
func (c *Call) SendFrame(ctx *sim.Context, from string, frame []byte) error {
	if !c.cloud.Model.RegionUp(c.inst.Region) {
		return ec2.ErrRegionDown
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ended {
		return ErrEnded
	}
	if _, ok := c.participants[from]; !ok {
		return fmt.Errorf("%w: %q", ErrNotParticipant, from)
	}
	c.bytesIn += int64(len(frame))
	for name := range c.participants {
		if name == from {
			continue
		}
		c.participants[name] = append(c.participants[name], append([]byte(nil), frame...))
		c.bytesOut += int64(len(frame))
	}
	if ctx != nil && c.cloud.Model != nil {
		ctx.Advance(c.cloud.Model.Sample(netsim.HopClientGateway)) // client-relay hop
	}
	return nil
}

// RecvFrames drains a participant's pending frames.
func (c *Call) RecvFrames(name string) ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	frames, ok := c.participants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotParticipant, name)
	}
	c.participants[name] = nil
	return frames, nil
}

// Simulate models a steady call segment: every participant streams
// upstream at bandwidthMbps/participants... precisely, the relay
// carries bandwidthMbps of total traffic for the duration (the paper's
// convention: a "3 Mbps HD call"), split evenly between inbound and
// outbound. The cloud clock advances by the duration.
func (c *Call) Simulate(duration time.Duration, bandwidthMbps float64) error {
	c.mu.Lock()
	if c.ended {
		c.mu.Unlock()
		return ErrEnded
	}
	totalBytes := int64(bandwidthMbps / 8 * 1e6 * duration.Seconds())
	c.bytesIn += totalBytes / 2
	c.bytesOut += totalBytes / 2
	c.mu.Unlock()
	c.cloud.Clock.Advance(duration)
	return nil
}

// TrafficBytes reports the relay's inbound and outbound byte counts.
func (c *Call) TrafficBytes() (in, out int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesIn, c.bytesOut
}

// End terminates the relay at the given instant, billing the VM's
// per-second compute and the outbound transfer.
func (c *Call) End(at time.Time) error {
	c.mu.Lock()
	if c.ended {
		c.mu.Unlock()
		return ErrEnded
	}
	c.ended = true
	out := c.bytesOut
	c.mu.Unlock()

	if err := c.cloud.EC2.Terminate(c.inst.ID, at); err != nil {
		return fmt.Errorf("video: ending call: %w", err)
	}
	c.cloud.EC2.MeterTransferOut(AppName, out)
	return nil
}

// CostOfCall computes the closed-form price of a call: instance
// seconds plus outbound transfer (half the call bandwidth), with no
// free-tier credit. Reproduces the paper's "a single hour-long HD call
// will cost roughly $0.11".
func CostOfCall(book *pricing.PriceBook, instanceType string, duration time.Duration, bandwidthMbps float64) pricing.Money {
	compute := book.EC2Hourly(instanceType).MulFloat(duration.Hours())
	outGB := bandwidthMbps / 2 / 8 * duration.Seconds() * 1e6 / 1e9
	transfer := book.TransferOutPerGB.MulFloat(outGB)
	return compute + transfer
}
