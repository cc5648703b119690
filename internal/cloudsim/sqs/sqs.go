// Package sqs simulates the queue service the chat prototype uses for
// message delivery. The paper's §6.2 design: "We implement long polling
// by having the serverless function post encrypted messages to Amazon's
// Simple Queue Service, which the client then long polls" with "the
// maximum 20 second poll interval".
//
// Receive resolves every long poll analytically on a virtual timeline,
// so a 20-second poll costs no real time. A flow with a cursor polls
// along it; a caller without one polls on a fresh cursor at the service
// clock's now, the same instant Send stamps on that caller's messages.
//
// Message bodies are immutable. Send takes ownership of the body it is
// handed, and Receive returns the stored slice, not a copy: neither the
// sender nor a receiver may write to it again (package owned checks
// this in tests).
package sqs

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/owned"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/trace"
	"repro/internal/pricing"
)

func init() {
	plane.Register(
		plane.Op{Service: "sqs", Method: "Send", Action: ActionSend},
		plane.Op{Service: "sqs", Method: "Receive", Action: ActionReceive},
		plane.Op{Service: "sqs", Method: "Delete", Action: ActionDelete},
	)
}

// MaxWait is SQS's maximum long-poll interval.
const MaxWait = 20 * time.Second

// DefaultVisibility is the default visibility timeout applied to
// received messages.
const DefaultVisibility = 30 * time.Second

// Actions checked against IAM.
const (
	ActionSend    = "sqs:SendMessage"
	ActionReceive = "sqs:ReceiveMessage"
	ActionDelete  = "sqs:DeleteMessage"
)

// Errors returned by the service.
var (
	ErrNoSuchQueue = errors.New("sqs: no such queue")
	ErrQueueExists = errors.New("sqs: queue already exists")
)

// Message is a queued message as seen by a receiver. Body is the
// stored slice and must not be written to.
type Message struct {
	ID   string
	Body []byte
	// Sent is the simulated instant the message entered the queue.
	Sent time.Time
}

type message struct {
	id        string
	body      []byte
	sent      time.Time
	visibleAt time.Time // in-flight until this instant
	sum       uint32    // owned.Sum(body)
}

type queue struct {
	msgs []*message
}

// Service is the simulated queue service. It is safe for concurrent use.
type Service struct {
	pl    *plane.Plane
	model *netsim.Model // delivery-hop sampling inside the poll
	clk   *clock.Virtual

	mu     sync.Mutex
	queues map[string]*queue
	nextID int64
}

// New returns a queue service wired to IAM, the meter, the network
// model and a clock.
func New(iamSvc *iam.Service, meter *pricing.Meter, model *netsim.Model, clk *clock.Virtual) *Service {
	return &Service{
		pl:     plane.New(iamSvc, meter, model),
		model:  model,
		clk:    clk,
		queues: make(map[string]*queue),
	}
}

// Plane exposes the service's request plane so wiring code can attach
// interceptors around every op.
func (s *Service) Plane() *plane.Plane { return s.pl }

// call builds the plane descriptor for one queue API call.
func call(action, name string) plane.Call {
	return plane.Call{
		Service:     "sqs",
		Op:          action,
		Action:      action,
		Resource:    iam.Resource{resourcePrefix, name},
		Annotations: [2]trace.Annotation{{Key: "queue", Value: name}},
		Fee:         pricing.Usage{Kind: pricing.SQSRequests, Quantity: 1},
	}
}

// resourcePrefix starts every queue's IAM resource name.
const resourcePrefix = "queue/"

// Resource returns the IAM resource string for a queue.
func Resource(name string) string { return resourcePrefix + name }

// CreateQueue provisions an empty queue.
func (s *Service) CreateQueue(name string) error {
	if name == "" {
		return errors.New("sqs: queue name must be non-empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.queues[name]; ok {
		return fmt.Errorf("sqs: %q: %w", name, ErrQueueExists)
	}
	s.queues[name] = &queue{}
	return nil
}

// DeleteQueue removes a queue and its messages.
func (s *Service) DeleteQueue(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.queues[name]; !ok {
		return fmt.Errorf("sqs: %q: %w", name, ErrNoSuchQueue)
	}
	delete(s.queues, name)
	return nil
}

// QueueExists reports whether the named queue exists.
func (s *Service) QueueExists(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.queues[name]
	return ok
}

// Len reports how many messages are currently queued (including
// in-flight ones).
func (s *Service) Len(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[name]
	if !ok {
		return 0
	}
	return len(q.msgs)
}

// Send enqueues a message and takes ownership of body: the caller must
// not write to it afterwards. The message becomes visible at the
// sender's current simulated instant plus the queue-delivery latency.
func (s *Service) Send(ctx *sim.Context, name string, body []byte) (string, error) {
	c := call(ActionSend, name)
	if ctx.Traced() {
		c.Annotations[1] = trace.Annotation{Key: "bytes", Value: strconv.Itoa(len(body))}
	}
	c.Latency = plane.Latency{On: true, Hop: netsim.HopSQSSend}
	op := &sendOp{s: s, ctx: ctx, name: name, body: body}
	if err := s.pl.DoHandler(ctx, &c, op); err != nil {
		return "", err
	}
	return op.id, nil
}

// sendOp is one Send's handler, holding the message id it assigns.
type sendOp struct {
	s        *Service
	ctx      *sim.Context
	name, id string
	body     []byte
}

func (op *sendOp) Handle(*plane.Request) error {
	s := op.s
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[op.name]
	if !ok {
		return fmt.Errorf("sqs: %q: %w", op.name, ErrNoSuchQueue)
	}
	s.nextID++
	op.id = "m-" + strconv.FormatInt(s.nextID, 10)
	q.msgs = append(q.msgs, &message{
		id:   op.id,
		body: op.body,
		sent: s.cursor(op.ctx).Now(),
		sum:  owned.Sum(op.body),
	})
	return nil
}

// Receive long-polls the queue for up to wait, returning at most max
// messages. Received messages become invisible to other receivers for
// DefaultVisibility; they must be deleted once processed or they will
// reappear (at-least-once delivery).
func (s *Service) Receive(ctx *sim.Context, name string, max int, wait time.Duration) ([]Message, error) {
	c := call(ActionReceive, name)
	c.Latency = plane.Latency{On: true, Hop: netsim.HopSQSPoll}
	op := &receiveOp{s: s, ctx: ctx, name: name, max: max, wait: wait}
	err := s.pl.DoHandler(ctx, &c, op)
	return op.msgs, err
}

// receiveOp is one Receive's handler, holding the messages it polls.
type receiveOp struct {
	s    *Service
	ctx  *sim.Context
	name string
	max  int
	wait time.Duration
	msgs []Message
}

func (op *receiveOp) Handle(req *plane.Request) error {
	n, wait := max(op.max, 1), min(max(op.wait, 0), MaxWait)
	var err error
	op.msgs, err = op.s.poll(op.s.cursor(op.ctx), op.name, n, wait)
	if req.Span != nil {
		req.Span.Annotate("messages", strconv.Itoa(len(op.msgs)))
	}
	return err
}

// poll resolves the long poll on cur's virtual timeline: if a message
// is (or becomes) visible within the wait window, the cursor advances
// to the delivery instant; otherwise it advances by the full wait.
func (s *Service) poll(cur *sim.Cursor, name string, max int, wait time.Duration) ([]Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[name]
	if !ok {
		return nil, fmt.Errorf("sqs: %q: %w", name, ErrNoSuchQueue)
	}
	deadline := cur.Now().Add(wait)

	var got []Message
	var deliveredAt time.Time
	for _, m := range q.msgs {
		if len(got) >= max {
			break
		}
		// A message is receivable if it is visible (not in flight) and
		// exists by the poll deadline.
		avail := m.sent
		if m.visibleAt.After(avail) {
			avail = m.visibleAt
		}
		if avail.After(deadline) {
			continue
		}
		if avail.After(deliveredAt) {
			deliveredAt = avail
		}
		owned.Check("sqs queue", name, m.id, m.body, m.sum)
		got = append(got, Message{ID: m.id, Body: m.body, Sent: m.sent})
	}
	if len(got) == 0 {
		cur.AdvanceTo(deadline)
		return nil, nil
	}
	// The poll completes when the latest delivered message arrived
	// (never earlier than the poll start) plus delivery latency.
	cur.AdvanceTo(deliveredAt)
	cur.Advance(s.sample(netsim.HopSQSDeliver))
	// Mark in-flight.
	invisibleUntil := cur.Now().Add(DefaultVisibility)
	for _, gm := range got {
		for _, m := range q.msgs {
			if m.id == gm.ID {
				m.visibleAt = invisibleUntil
			}
		}
	}
	return got, nil
}

// Delete removes a received message by id. Deleting an unknown id is a
// no-op, matching SQS semantics.
func (s *Service) Delete(ctx *sim.Context, name, id string) error {
	c := call(ActionDelete, name)
	return s.pl.Do(ctx, &c, func(*plane.Request) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		q, ok := s.queues[name]
		if !ok {
			return fmt.Errorf("sqs: %q: %w", name, ErrNoSuchQueue)
		}
		for i, m := range q.msgs {
			if m.id == id {
				owned.Check("sqs queue", name, m.id, m.body, m.sum)
				q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
				break
			}
		}
		return nil
	})
}

func (s *Service) sample(h netsim.Hop) time.Duration {
	if s.model == nil {
		return 0
	}
	return s.model.Sample(h)
}

// cursor returns the caller's flow cursor, or for a caller without one
// a fresh cursor at the service clock's now.
func (s *Service) cursor(ctx *sim.Context) *sim.Cursor {
	if ctx != nil && ctx.Cursor != nil {
		return ctx.Cursor
	}
	return sim.NewCursor(s.clk.Now())
}
