// Package ec2 simulates the VM hosting service used as the paper's
// strawman baseline (§5, Table 1) and as the host for the video
// conferencing relay (Table 2, row 5 — "Since Lambda does not support
// multiple connections yet, we use a t2.medium EC2 instance (with 4GB
// of RAM), which is billed per second").
//
// Unlike the serverless platform, a VM bills for every second it is
// running whether or not requests arrive, and provides no automatic
// failover: if its region goes down, so does the service. Those two
// properties are the paper's entire argument. The service models only
// the bill (instance seconds and outbound transfer); it has no request
// plane. Code hosted on a VM, such as the video relay, checks its own
// region and pays its own client hop.
package ec2

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/pricing"
)

// InstanceType describes a VM size.
type InstanceType struct {
	Name     string
	MemoryMB int
	VCPUs    int
}

// Catalog is the 2017 t2 instance family.
var Catalog = map[string]InstanceType{
	"t2.nano":   {Name: "t2.nano", MemoryMB: 512, VCPUs: 1},
	"t2.micro":  {Name: "t2.micro", MemoryMB: 1024, VCPUs: 1},
	"t2.small":  {Name: "t2.small", MemoryMB: 2048, VCPUs: 1},
	"t2.medium": {Name: "t2.medium", MemoryMB: 4096, VCPUs: 2},
	"t2.large":  {Name: "t2.large", MemoryMB: 8192, VCPUs: 2},
}

// Errors returned by the service.
var (
	ErrNoSuchInstance = errors.New("ec2: no such instance")
	ErrUnknownType    = errors.New("ec2: unknown instance type")
	// ErrRegionDown is what a VM-hosted service returns while its
	// instance's region is down.
	ErrRegionDown = errors.New("ec2: region is down")
)

// Instance is one launched VM.
type Instance struct {
	ID       string
	Type     InstanceType
	Region   string
	App      string
	running  bool
	launched time.Time
	accrued  time.Time
}

// Service is the simulated VM platform. It is safe for concurrent use.
type Service struct {
	meter *pricing.Meter
	clk   clock.Clock

	mu        sync.Mutex
	instances map[string]*Instance
	nextID    int64
}

// New returns a VM service wired to the meter and clock.
func New(meter *pricing.Meter, clk clock.Clock) *Service {
	if clk == nil {
		clk = clock.Wall{}
	}
	return &Service{
		meter:     meter,
		clk:       clk,
		instances: make(map[string]*Instance),
	}
}

// Launch starts a VM of the given type. at is the launch instant on the
// simulated timeline (pass the flow's cursor time, or the clock's now).
func (s *Service) Launch(typeName, region, app string, at time.Time) (*Instance, error) {
	it, ok := Catalog[typeName]
	if !ok {
		return nil, fmt.Errorf("ec2: %q: %w", typeName, ErrUnknownType)
	}
	if at.IsZero() {
		at = s.clk.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	inst := &Instance{
		ID:       "i-" + strconv.FormatInt(s.nextID, 10),
		Type:     it,
		Region:   region,
		App:      app,
		running:  true,
		launched: at,
		accrued:  at,
	}
	s.instances[inst.ID] = inst
	return inst, nil
}

// Terminate stops a VM at the given instant, billing its final usage.
func (s *Service) Terminate(id string, at time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	inst, ok := s.instances[id]
	if !ok {
		return fmt.Errorf("ec2: %q: %w", id, ErrNoSuchInstance)
	}
	if at.IsZero() {
		at = s.clk.Now()
	}
	s.accrueLocked(inst, at)
	inst.running = false
	delete(s.instances, id)
	return nil
}

// Accrue bills an instance's compute seconds up to the given instant.
// Experiments call it to flush per-second billing at the end of a
// simulated period.
func (s *Service) Accrue(id string, until time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	inst, ok := s.instances[id]
	if !ok {
		return fmt.Errorf("ec2: %q: %w", id, ErrNoSuchInstance)
	}
	s.accrueLocked(inst, until)
	return nil
}

func (s *Service) accrueLocked(inst *Instance, until time.Time) {
	if !until.After(inst.accrued) {
		return
	}
	secs := until.Sub(inst.accrued).Seconds()
	inst.accrued = until
	s.meter.Add(pricing.Usage{
		Kind:     pricing.EC2Seconds,
		Quantity: secs,
		Resource: inst.Type.Name,
		App:      inst.App,
	})
}

// Running reports whether an instance exists and is running.
func (s *Service) Running(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	inst, ok := s.instances[id]
	return ok && inst.running
}

// MeterTransferOut bills internet egress from a VM (e.g. the video
// relay's outbound streams).
func (s *Service) MeterTransferOut(app string, bytes int64) {
	s.meter.Add(pricing.Usage{
		Kind:     pricing.TransferOutGB,
		Quantity: float64(bytes) / 1e9,
		App:      app,
	})
}
