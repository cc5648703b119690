// Package ses simulates the simple email service the DIY email
// application builds on. The paper: "While Lambda currently does not
// support SMTP endpoints, we can use Amazon's SES service to provide
// the send service, and use Lambda as a hook to encrypt email (e.g.,
// using PGP encryption) before storing it."
//
// Outbound: Send meters per-message pricing and delivers locally if the
// recipient has an inbound hook. Inbound: Deliver fires the Lambda
// function registered for the recipient address.
package ses

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/trace"
	"repro/internal/pricing"
)

func init() {
	// SES calls are not IAM-authenticated: Send is reached from inside
	// an already-authorized function, Deliver models port-25 ingress.
	plane.Register(
		plane.Op{Service: "ses", Method: "Send", Action: ""},
		plane.Op{Service: "ses", Method: "Deliver", Action: ""},
	)
}

// TriggerSource is the lambda trigger source key for inbound mail.
const TriggerSource = "ses"

// Errors returned by the service.
var ErrNoHook = errors.New("ses: recipient has no inbound hook")

// Service is the simulated email service. It is safe for concurrent
// use. It implements lambda.EmailSender.
type Service struct {
	platform *lambda.Platform
	pl       *plane.Plane

	mu      sync.Mutex
	inbound map[string]bool // addresses with a registered hook
	outbox  []OutboundMail  // mail addressed outside the simulation
}

// OutboundMail records mail that left the simulated cloud (the "rest of
// the internet"), for test and example inspection.
type OutboundMail struct {
	From string
	To   string
	Raw  []byte
}

// New returns an SES wired to the lambda platform (for inbound
// triggers), the meter and the network model.
func New(platform *lambda.Platform, meter *pricing.Meter, model *netsim.Model) *Service {
	return &Service{
		platform: platform,
		pl:       plane.New(nil, meter, model),
		inbound:  make(map[string]bool),
	}
}

// Plane exposes the service's request plane so wiring code can attach
// interceptors around every op.
func (s *Service) Plane() *plane.Plane { return s.pl }

var _ lambda.EmailSender = (*Service)(nil)

// RegisterInbound routes mail for addr to a Lambda function — the
// paper's "message arriving at port 25" event trigger.
func (s *Service) RegisterInbound(addr, fnName string) error {
	addr = normalize(addr)
	if err := s.platform.RegisterTrigger(TriggerSource, addr, fnName); err != nil {
		return err
	}
	s.mu.Lock()
	s.inbound[addr] = true
	s.mu.Unlock()
	return nil
}

// Send delivers raw mail from one sender to the recipients. Each
// recipient is one metered SES message. Recipients with inbound hooks
// receive the mail via their Lambda trigger; others leave the
// simulation into the outbox.
func (s *Service) Send(ctx *sim.Context, from string, to []string, raw []byte) error {
	// One metered SES message per recipient.
	usage := make([]pricing.Usage, len(to))
	for i := range usage {
		usage[i] = pricing.Usage{Kind: pricing.SESMessages, Quantity: 1}
	}
	c := plane.Call{
		Service: "ses",
		Op:      "Send",
		Nest:    true,
		Latency: plane.Latency{On: true, Hop: netsim.HopSES},
		Usage:   usage,
	}
	if ctx.Traced() {
		c.Annotations[0] = trace.Annotation{Key: "recipients", Value: strconv.Itoa(len(to))}
	}
	return s.pl.Do(ctx, &c, func(*plane.Request) error {
		var firstErr error
		for _, rcpt := range to {
			if err := s.deliver(ctx, from, normalize(rcpt), raw); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	})
}

// Deliver injects inbound mail from the outside world for a hooked
// recipient, firing its Lambda function.
func (s *Service) Deliver(ctx *sim.Context, from, to string, raw []byte) error {
	to = normalize(to)
	s.mu.Lock()
	hooked := s.inbound[to]
	s.mu.Unlock()
	if !hooked {
		return fmt.Errorf("ses: %q: %w", to, ErrNoHook)
	}
	c := plane.Call{
		Service:     "ses",
		Op:          "Deliver",
		Nest:        true,
		Annotations: [2]trace.Annotation{{Key: "to", Value: to}},
		Latency:     plane.Latency{On: true, Hop: netsim.HopSES},
	}
	return s.pl.Do(ctx, &c, func(*plane.Request) error {
		_, _, err := s.platform.InvokeTrigger(ctx, TriggerSource, to, lambda.Event{
			Source: TriggerSource,
			Op:     "inbound",
			Body:   raw,
			Attrs:  map[string]string{"from": from, "to": to},
		})
		return err
	})
}

func (s *Service) deliver(ctx *sim.Context, from, to string, raw []byte) error {
	s.mu.Lock()
	hooked := s.inbound[to]
	s.mu.Unlock()
	if hooked {
		_, _, err := s.platform.InvokeTrigger(ctx, TriggerSource, to, lambda.Event{
			Source: TriggerSource,
			Op:     "inbound",
			Body:   raw,
			Attrs:  map[string]string{"from": from, "to": to},
		})
		return err
	}
	s.mu.Lock()
	s.outbox = append(s.outbox, OutboundMail{From: from, To: to, Raw: append([]byte(nil), raw...)})
	s.mu.Unlock()
	return nil
}

// Outbox returns a copy of the mail that left the simulation.
func (s *Service) Outbox() []OutboundMail {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]OutboundMail(nil), s.outbox...)
}

func normalize(addr string) string {
	return strings.ToLower(strings.TrimSpace(addr))
}
