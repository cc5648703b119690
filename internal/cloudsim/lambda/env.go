package lambda

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cloudsim/dynamo"
	"repro/internal/cloudsim/kms"
	"repro/internal/cloudsim/s3"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/sqs"
	"repro/internal/cloudsim/trace"
	"repro/internal/crypto/envelope"
)

// EmailSender is the outbound-email capability exposed to functions.
// It is an interface so the lambda package does not depend on the ses
// package (which depends on lambda for inbound triggers).
type EmailSender interface {
	Send(ctx *sim.Context, from string, to []string, raw []byte) error
}

// Services bundles the cloud services functions may call.
type Services struct {
	KMS    *kms.Service
	S3     *s3.Service
	SQS    *sqs.Service
	Dynamo *dynamo.Service
	Email  EmailSender
}

// SetServices wires the platform's service handles, exposed to handlers
// through their Env. It is the one setter left after construction,
// because SES and the platform reference each other. Like plane.Use, it
// is wiring-time only: call it before the platform serves its first
// invocation. Handlers then read the handles without a lock.
func (p *Platform) SetServices(s Services) { p.services = s }

// Env is the execution environment handed to a Handler. It carries the
// invocation's identity (the function's IAM role), its simulated
// timeline, and the container-local state. All service calls made
// through the Env are authenticated, metered and latency-accounted.
//
// An Env lives for one invocation, and so does everything secret it
// hands out: data keys from DataKey (unless the function caches them)
// and plaintext memory from Scratch are zeroed when the invocation
// ends. A handler that returns or keeps such bytes copies them first.
type Env struct {
	platform *Platform
	fn       *Function
	cont     *container
	// ctx is the invocation's call context, on cur.
	ctx sim.Context
	cur sim.Cursor

	peakMemory int64
	secrets    [][]byte

	// Scratch's bookkeeping: used bytes of cont.arena are handed out,
	// need bytes over every buffer this invocation, and spent holds
	// the handed-out part of each buffer the invocation outgrew.
	used, need int
	spent      [][]byte
}

// start readies e for one invocation of fn in cont: the call context
// acts as the function's role in region, on a fresh cursor at the
// given instant, with the service hops it makes nested under span sp.
func (e *Env) start(p *Platform, fn *Function, cont *container, region string, at time.Time, sp *trace.Span) {
	e.platform, e.fn, e.cont = p, fn, cont
	e.cur = sim.CursorAt(at)
	e.ctx = sim.Context{
		Principal:     fn.Role,
		App:           fn.App,
		Region:        region,
		Cursor:        &e.cur,
		FunctionMemMB: fn.MemoryMB,
		Span:          sp,
	}
}

// Ctx returns the invocation's call context: principal = the function's
// role, cursor = the invocation timeline, memory = the allocation.
func (e *Env) Ctx() *sim.Context { return &e.ctx }

// KMS returns the key management service handle.
func (e *Env) KMS() *kms.Service { return e.platform.services.KMS }

// S3 returns the object store handle.
func (e *Env) S3() *s3.Service { return e.platform.services.S3 }

// SQS returns the queue service handle.
func (e *Env) SQS() *sqs.Service { return e.platform.services.SQS }

// Dynamo returns the low-latency table store handle, or nil if the
// platform has none wired.
func (e *Env) Dynamo() *dynamo.Service { return e.platform.services.Dynamo }

// Email returns the outbound email service, or nil if none is wired.
func (e *Env) Email() EmailSender { return e.platform.services.Email }

// Config returns a function environment value ("" if unset).
func (e *Env) Config(key string) string { return e.fn.Config[key] }

// Compute declares d of modelled CPU work (encryption, parsing,
// application logic), advancing the invocation timeline. The handler's
// real Go execution time on the test machine is deliberately not used:
// run time must be deterministic and calibrated to the 2017 platform.
func (e *Env) Compute(d time.Duration) { e.ctx.Advance(d) }

// RecordMemory reports a working-set size; the invocation's peak is
// exposed in InvocationStats (the paper's "Peak Memory Used" row).
func (e *Env) RecordMemory(bytes int64) {
	if bytes > e.peakMemory {
		e.peakMemory = bytes
	}
}

// DataKey returns the plaintext data key for a wrapped blob. With
// CacheDataKeys enabled, warm containers reuse the unwrapped key and
// skip the KMS round trip; otherwise every invocation calls KMS and the
// key is zeroed when the invocation finishes, enforcing the paper's
// "the function only contains the key in its memory during execution".
func (e *Env) DataKey(wrapped []byte) ([]byte, error) {
	cacheKey := string(wrapped)
	if e.fn.CacheDataKeys {
		e.platform.mu.Lock()
		cached, ok := e.cont.cache[cacheKey]
		e.platform.mu.Unlock()
		if ok {
			return cached, nil
		}
	}
	dk, err := e.KMS().Decrypt(&e.ctx, wrapped)
	if err != nil {
		return nil, fmt.Errorf("lambda: unwrapping data key: %w", err)
	}
	if e.fn.CacheDataKeys {
		e.platform.mu.Lock()
		if e.cont.cache == nil {
			e.cont.cache = make(map[string][]byte)
		}
		e.cont.cache[cacheKey] = dk
		e.platform.mu.Unlock()
	} else {
		e.secrets = append(e.secrets, dk)
	}
	return dk, nil
}

// Scratch returns n bytes of the container's plaintext arena as an
// empty slice with capacity n, for opening sealed state into
// (envelope.Key.OpenTo). Slices handed out during one invocation are
// disjoint, so several may be live at once, and every byte of them is
// zeroed when the invocation ends; the next warm invocation reuses the
// memory. When a request does not fit, a new buffer replaces the
// arena, sized for the larger of the container's settled peak and the
// invocation's need so far plus a quarter for growth: a sealed
// document that grows a little with every invocation then outgrows its
// arena every few invocations rather than on each, and no arena is
// more than 1.25 times the peak it settles on. The outgrown buffer's
// handed-out bytes are zeroed at the end too.
func (e *Env) Scratch(n int) []byte {
	c := e.cont
	if n > len(c.arena)-e.used {
		if e.used > 0 {
			e.spent = append(e.spent, c.arena[:e.used])
		}
		want := e.need + n
		a := slices.Grow([]byte(nil), max(want+want/4, c.settledPeak()))
		c.arena, e.used = a[:cap(a)], 0
	}
	b := c.arena[e.used : e.used : e.used+n]
	e.used += n
	e.need += n
	return b
}

// finish scrubs per-invocation secrets: unwrapped data keys, and every
// arena byte Scratch handed out. It then records the invocation's need
// in the container's peak and drops an arena more than twice the
// settled peak, so a container that once opened a large archive gives
// that memory back once arenaWindow to twice as many invocations have
// needed far less.
func (e *Env) finish() {
	for _, s := range e.secrets {
		envelope.Zero(s)
	}
	e.secrets = nil
	for _, b := range e.spent {
		envelope.Zero(b)
	}
	e.spent = nil
	c := e.cont
	envelope.Zero(c.arena[:e.used])
	c.peak = max(c.peak, e.need)
	if c.served++; c.served == arenaWindow {
		c.lastPeak, c.peak, c.served = c.peak, 0, 0
	}
	if len(c.arena) > 2*c.settledPeak() {
		c.arena = nil
	}
	e.used, e.need = 0, 0
}
