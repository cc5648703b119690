// Package core implements the paper's primary contribution: the DIY
// deployment model. A Cloud bundles one provider's simulated services;
// an App declares a serverless function plus the resources it needs;
// Install binds the two into a Deployment with least-privilege IAM, a
// per-deployment encryption key held by KMS, and a storage bucket that
// rejects plaintext writes. Deployments support the controls the paper
// argues centralized services deny users: migration between providers,
// deletion with data, and remote attestation of the running code.
package core

import (
	"fmt"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/dynamo"
	"repro/internal/cloudsim/ec2"
	"repro/internal/cloudsim/gateway"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/kms"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/metrics"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/s3"
	"repro/internal/cloudsim/ses"
	"repro/internal/cloudsim/sqs"
	"repro/internal/cloudsim/trace"
	"repro/internal/crypto/attest"
	"repro/internal/pricing"
)

// Cloud is one simulated provider: the full service stack the DIY
// architecture needs (Figure 1), plus billing and attestation.
type Cloud struct {
	Name   string
	Region string

	Clock   *clock.Virtual
	Model   *netsim.Model
	Meter   *pricing.Meter
	Book    *pricing.PriceBook
	IAM     *iam.Service
	KMS     *kms.Service
	S3      *s3.Service
	Dynamo  *dynamo.Service
	SQS     *sqs.Service
	Lambda  *lambda.Platform
	EC2     *ec2.Service
	SES     *ses.Service
	Gateway *gateway.Service
	Metrics *metrics.Service
	Logs    *logs.Service
	Tracer  *trace.Store
	Attest  *attest.Platform
}

// Shared bundles the immutable pieces of a provider that every account
// in a fleet can alias instead of rebuilding: the price book and the
// attestation platform (whose ed25519 keypair generation is the
// dominant per-Cloud construction cost — one keypair serves a million
// accounts the way one real provider's attestation root serves all its
// tenants). Everything here is read-only after construction, so shards
// may share it freely; all mutable state (meter, stores, telemetry
// planes, clock) stays per-Cloud.
type Shared struct {
	// Book is the price book accounts bill against.
	Book *pricing.PriceBook
	// Attest is the provider's enclave attestation platform.
	Attest *attest.Platform
}

// NewShared resolves the price book (Default2017 if nil) and generates
// the attestation keypair once, for reuse across every account Cloud
// built from it.
func NewShared(book *pricing.PriceBook) (*Shared, error) {
	if book == nil {
		book = pricing.Default2017()
	}
	att, err := attest.NewPlatform()
	if err != nil {
		return nil, fmt.Errorf("core: building shared platform state: %w", err)
	}
	return &Shared{Book: book, Attest: att}, nil
}

// CloudOptions configures NewCloud.
type CloudOptions struct {
	// Name identifies the provider (default "aws-sim").
	Name string
	// NetParams overrides the latency model (DefaultParams if nil).
	NetParams *netsim.Params
	// DisableObservability skips installing the metrics interceptor on
	// the service planes. Observability is on by default — the DIY
	// operator has no provider dashboard, so the cloud publishes its
	// own RED+cost series; parity tests flip this to prove the
	// interceptor never moves a ledger number.
	DisableObservability bool
	// DisableLogging skips installing the log-plane interceptor and the
	// per-service log sinks (Lambda START/END/REPORT lines, the KMS
	// audit group). Logging is on by default — the log plane is the
	// operator-facing evidence trail — and, like metrics, is read-only
	// with respect to the economy; TestLogsPreserveLedger flips this to
	// prove a logged run is bit-identical to an unlogged one.
	DisableLogging bool
	// Shared supplies the immutable cross-account state (price book,
	// attestation platform) so per-account construction stays cheap.
	// Nil builds a private bundle with the Default2017 book.
	Shared *Shared
	// DisableTracing skips building the X-Ray-sim trace store, so
	// every flow runs untraced: TracedContext returns a nil trace and
	// nothing is sampled, stored or priced — the parity tests flip this
	// to prove tracing never moves a ledger number.
	DisableTracing bool
	// TraceSampling configures the trace store's head-based sampler.
	// Nil keeps every recorded trace — the single-account default,
	// where the operator wants each request explained. The fleet seeds
	// one per account (workload.Substream(seed, "trace")) with X-Ray's
	// default reservoir-plus-5% rule.
	TraceSampling *trace.SamplerConfig
}

// NewCloud builds a fully wired simulated provider. It is the one place
// a cloud is assembled: the telemetry sinks come first, so the services
// that write to them (Lambda's samples and log lines, the KMS audit
// group) receive them at construction, and the planes' interceptors go
// on before anything is served.
func NewCloud(opts CloudOptions) (*Cloud, error) {
	if opts.Name == "" {
		opts.Name = "aws-sim"
	}
	shared := opts.Shared
	if shared == nil {
		s, err := NewShared(nil)
		if err != nil {
			return nil, fmt.Errorf("core: building cloud %q: %w", opts.Name, err)
		}
		shared = s
	}
	params := netsim.DefaultParams()
	if opts.NetParams != nil {
		params = *opts.NetParams
	}

	c := &Cloud{
		Name:   opts.Name,
		Region: "us-west-2",
		Clock:  clock.NewVirtual(),
		Model:  netsim.NewModel(params),
		Meter:  pricing.NewMeter(),
		Book:   shared.Book,
		IAM:    iam.New(),
	}
	c.Metrics = metrics.New()
	c.Logs = logs.New(c.Clock)
	if !opts.DisableTracing {
		c.Tracer = trace.NewStore(opts.TraceSampling)
	}
	// The service-side log sinks are off with logging; the metrics sink
	// is not, because Lambda's samples are the Table 3 statistics.
	var sink *logs.Service
	if !opts.DisableLogging {
		sink = c.Logs
	}
	c.KMS = kms.New(c.IAM, c.Meter, c.Model, c.Clock, sink)
	c.S3 = s3.New(c.IAM, c.Meter, c.Model, c.Clock)
	c.Dynamo = dynamo.New(c.IAM, c.Meter, c.Model, c.Clock)
	c.SQS = sqs.New(c.IAM, c.Meter, c.Model, c.Clock)
	c.Lambda = lambda.New(c.Meter, c.Model, c.Clock, c.Metrics, sink)
	c.EC2 = ec2.New(c.Meter, c.Clock)
	c.SES = ses.New(c.Lambda, c.Meter, c.Model)
	c.Gateway = gateway.New(c.Lambda, c.Meter, c.Model, c.Clock)
	c.Lambda.SetServices(lambda.Services{KMS: c.KMS, S3: c.S3, SQS: c.SQS, Dynamo: c.Dynamo, Email: c.SES})

	planes := []*plane.Plane{
		c.KMS.Plane(), c.S3.Plane(), c.Dynamo.Plane(), c.SQS.Plane(),
		c.Lambda.Plane(), c.SES.Plane(), c.Gateway.Plane(),
	}
	if !opts.DisableObservability {
		obs := metrics.PlaneInterceptor(c.Metrics, c.Book, c.Clock)
		for _, pl := range planes {
			pl.Use(obs)
		}
	}
	if !opts.DisableLogging {
		lobs := logs.PlaneInterceptor(c.Logs, c.Book, c.Clock)
		for _, pl := range planes {
			pl.Use(lobs)
		}
	}

	c.Attest = shared.Attest
	return c, nil
}

// Bill computes the provider's current monthly bill.
func (c *Cloud) Bill() *pricing.Bill {
	return pricing.Compute(c.Book, c.Meter)
}
