// Package dynamo simulates the low-latency key-value alternative to
// object storage that the paper's evaluation footnotes: "Amazon
// DynamoDB is a low-latency alternative to S3."
//
// Tables hold versioned items with conditional writes; per-item
// operations are several times faster than S3 calls and are priced in
// provisioned read/write capacity units, with the 2017 always-free
// allowance of 25 RCU + 25 WCU that keeps personal-scale DIY services
// at $0.00. The chat application can run against either backend; the
// backend ablation in internal/experiments compares them.
//
// Item values are immutable. Put and PutIfVersion take ownership of the
// value they are handed, and Get returns the stored slice, not a copy:
// neither the writer nor a reader may write to it again (package owned
// checks this in tests).
package dynamo

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/owned"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/sortutil"
	"repro/internal/cloudsim/trace"
	"repro/internal/pricing"
)

func init() {
	plane.Register(
		plane.Op{Service: "dynamo", Method: "Get", Action: ActionGet},
		plane.Op{Service: "dynamo", Method: "Put", Action: ActionPut},
		plane.Op{Service: "dynamo", Method: "PutIfVersion", Action: ActionPut},
		plane.Op{Service: "dynamo", Method: "Query", Action: ActionQuery},
	)
}

// Actions checked against IAM.
const (
	ActionGet   = "dynamodb:GetItem"
	ActionPut   = "dynamodb:PutItem"
	ActionQuery = "dynamodb:Query"
)

// ItemUnitBytes is the capacity-unit accounting granularity: one write
// unit per 1 KB, one read unit per 4 KB (2017 DynamoDB pricing model).
const (
	WriteUnitBytes = 1 << 10
	ReadUnitBytes  = 4 << 10
)

// Errors returned by the service.
var (
	ErrNoSuchTable       = errors.New("dynamo: no such table")
	ErrNoSuchItem        = errors.New("dynamo: no such item")
	ErrTableExists       = errors.New("dynamo: table already exists")
	ErrConditionFailed   = errors.New("dynamo: conditional check failed")
	ErrPlaintextRejected = errors.New("dynamo: table policy rejects plaintext items")
)

// Item is one stored item. Value is the stored slice and must not be
// written to.
type Item struct {
	Key      string
	Value    []byte
	Version  int64
	Modified time.Time
	sum      uint32 // owned.Sum(Value)
}

type table struct {
	items         map[string]*Item
	version       int64
	requireSealed bool
	sealedCheck   func([]byte) bool
}

// Service is the simulated table store. It is safe for concurrent use.
type Service struct {
	pl  *plane.Plane
	clk *clock.Virtual

	mu     sync.Mutex
	tables map[string]*table
}

// New returns a table store wired to IAM, the meter, the network model
// and the cloud's clock, used for item
// modification timestamps on flows that carry no simulated timeline.
func New(iamSvc *iam.Service, meter *pricing.Meter, model *netsim.Model, clk *clock.Virtual) *Service {
	return &Service{
		pl:     plane.New(iamSvc, meter, model),
		clk:    clk,
		tables: make(map[string]*table),
	}
}

// Plane exposes the service's request plane so wiring code can attach
// interceptors around every op.
func (s *Service) Plane() *plane.Plane { return s.pl }

// call builds the plane descriptor for one table op: a quarter of an
// S3 hop with the same memory coupling, priced in capacity units of
// the given kind.
func call(action, tableName string, kind pricing.Kind, units float64) plane.Call {
	c := plane.Call{
		Service:     "dynamo",
		Op:          action,
		Action:      action,
		Resource:    iam.Resource{resourcePrefix, tableName},
		Annotations: [2]trace.Annotation{{Key: "table", Value: tableName}},
		Latency:     plane.Latency{On: true, Hop: netsim.HopS3, Scale: 0.25, MemoryCoupled: true},
	}
	if units > 0 {
		c.Fee = pricing.Usage{Kind: kind, Quantity: units}
	}
	return c
}

// resourcePrefix starts every table's IAM resource name.
const resourcePrefix = "table/"

// Resource returns the IAM resource string for a table.
func Resource(name string) string { return resourcePrefix + name }

// CreateTable provisions an empty table.
func (s *Service) CreateTable(name string) error {
	if name == "" || strings.Contains(name, "/") {
		return fmt.Errorf("dynamo: invalid table name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("dynamo: %q: %w", name, ErrTableExists)
	}
	s.tables[name] = &table{items: make(map[string]*Item)}
	return nil
}

// DeleteTable removes a table and its items.
func (s *Service) DeleteTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("dynamo: %q: %w", name, ErrNoSuchTable)
	}
	delete(s.tables, name)
	return nil
}

// TableExists reports whether the table exists.
func (s *Service) TableExists(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.tables[name]
	return ok
}

// SetRequireSealed enables the ciphertext-only policy on a table,
// using the given predicate (envelope.IsSealed in DIY deployments).
func (s *Service) SetRequireSealed(name string, check func([]byte) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return fmt.Errorf("dynamo: %q: %w", name, ErrNoSuchTable)
	}
	t.requireSealed = check != nil
	t.sealedCheck = check
	return nil
}

// Get retrieves an item. Its Value is the stored slice, which the
// caller must not write to.
func (s *Service) Get(ctx *sim.Context, tableName, key string) (*Item, error) {
	s.mu.Lock()
	var size int
	if t, ok := s.tables[tableName]; ok {
		if it, ok := t.items[key]; ok {
			size = len(it.Value)
		}
	}
	s.mu.Unlock()
	var out *Item
	c := call(ActionGet, tableName, pricing.DynamoRCU, readUnits(size))
	err := s.pl.Do(ctx, &c, func(*plane.Request) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		t, ok := s.tables[tableName]
		if !ok {
			return fmt.Errorf("dynamo: %q: %w", tableName, ErrNoSuchTable)
		}
		it, ok := t.items[key]
		if !ok {
			return fmt.Errorf("dynamo: %s/%s: %w", tableName, key, ErrNoSuchItem)
		}
		owned.Check("dynamo table", tableName, key, it.Value, it.sum)
		cp := *it
		out = &cp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Put stores an item unconditionally and takes ownership of value: the
// caller must not write to it afterwards.
func (s *Service) Put(ctx *sim.Context, tableName, key string, value []byte) error {
	return s.put(ctx, tableName, key, value, -1)
}

// PutIfVersion stores an item only if its current version matches
// expect (0 = must not exist): the conditional write DIY apps use for
// read-modify-write safety under concurrent invocations. Like Put, it
// takes ownership of value.
func (s *Service) PutIfVersion(ctx *sim.Context, tableName, key string, value []byte, expect int64) error {
	return s.put(ctx, tableName, key, value, expect)
}

func (s *Service) put(ctx *sim.Context, tableName, key string, value []byte, expect int64) error {
	c := call(ActionPut, tableName, pricing.DynamoWCU, writeUnits(len(value)))
	return s.pl.Do(ctx, &c, func(*plane.Request) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		t, ok := s.tables[tableName]
		if !ok {
			return fmt.Errorf("dynamo: %q: %w", tableName, ErrNoSuchTable)
		}
		if t.requireSealed && !t.sealedCheck(value) {
			return fmt.Errorf("dynamo: %s/%s: %w", tableName, key, ErrPlaintextRejected)
		}
		cur, exists := t.items[key]
		if exists {
			owned.Check("dynamo table", tableName, key, cur.Value, cur.sum)
		}
		if expect >= 0 {
			switch {
			case expect == 0 && exists:
				return fmt.Errorf("dynamo: %s/%s exists (version %d): %w", tableName, key, cur.Version, ErrConditionFailed)
			case expect > 0 && (!exists || cur.Version != expect):
				got := int64(0)
				if exists {
					got = cur.Version
				}
				return fmt.Errorf("dynamo: %s/%s version %d != %d: %w", tableName, key, got, expect, ErrConditionFailed)
			}
		}
		t.version++
		t.items[key] = &Item{
			Key:     key,
			Value:   value,
			Version: t.version,
			Modified: func() time.Time {
				if ctx != nil && ctx.Cursor != nil {
					return ctx.Cursor.Now()
				}
				return s.clk.Now()
			}(),
			sum: owned.Sum(value),
		}
		return nil
	})
}

// Query returns the keys with the given prefix, sorted.
func (s *Service) Query(ctx *sim.Context, tableName, prefix string) ([]string, error) {
	var keys []string
	c := call(ActionQuery, tableName, pricing.DynamoRCU, 1)
	err := s.pl.Do(ctx, &c, func(*plane.Request) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		t, ok := s.tables[tableName]
		if !ok {
			return fmt.Errorf("dynamo: %q: %w", tableName, ErrNoSuchTable)
		}
		for _, k := range sortutil.SortedKeys(t.items) {
			if strings.HasPrefix(k, prefix) {
				keys = append(keys, k)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}

// StorageBytes reports the bytes stored in a table ("" for all).
func (s *Service) StorageBytes(tableName string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for name, t := range s.tables {
		if tableName != "" && name != tableName {
			continue
		}
		for _, it := range t.items {
			total += int64(len(it.Value))
		}
	}
	return total
}

func readUnits(bytes int) float64 {
	if bytes <= 0 {
		return 1
	}
	return float64((bytes + ReadUnitBytes - 1) / ReadUnitBytes)
}

func writeUnits(bytes int) float64 {
	if bytes <= 0 {
		return 1
	}
	return float64((bytes + WriteUnitBytes - 1) / WriteUnitBytes)
}
