package core

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"repro/internal/cloudsim/dynamo"
	"repro/internal/cloudsim/gateway"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/kms"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/s3"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/sqs"
	"repro/internal/cloudsim/trace"
	"repro/internal/crypto/attest"
	"repro/internal/crypto/envelope"
)

// Deployment is one user's installation of one app on one cloud: the
// function, its trigger(s), its encrypted bucket, its KMS key, and the
// least-privilege roles binding them (paper Figure 1).
type Deployment struct {
	Cloud *Cloud
	User  string
	app   App
	// AppName survives deletion for labelling purposes.
	AppName string

	FnName     string
	Bucket     string
	Table      string // DynamoDB table name ("" when the app is S3-only)
	KeyID      string
	Role       string // the function's IAM role
	ClientRole string // the user's client-side principal
	Endpoint   string // gateway path ("" if none)
	Queues     map[string]string
	WrappedKey []byte
}

// ErrNotInstalled is returned for operations on a deleted deployment.
var ErrNotInstalled = errors.New("core: deployment not installed")

// Install provisions app for user on cloud. Everything is created
// fresh and scoped to this deployment: nothing grants access to any
// other user's resources.
func Install(cloud *Cloud, user string, app App) (*Deployment, error) {
	if user == "" || strings.ContainsAny(user, "/- ") {
		return nil, fmt.Errorf("core: invalid user name %q", user)
	}
	spec := app.Spec()
	d := &Deployment{
		Cloud:   cloud,
		User:    user,
		app:     app,
		AppName: app.Name(),
		FnName:  user + "-" + app.Name(),
		Bucket:  user + "-" + app.Name(),
		KeyID:   user + "-" + app.Name(),
		Role:    user + "-" + app.Name() + "-fn",
		Queues:  make(map[string]string),
	}
	d.ClientRole = user + "-" + app.Name() + "-client"

	// Storage: a bucket that refuses plaintext.
	if err := cloud.S3.CreateBucket(d.Bucket); err != nil {
		return nil, fmt.Errorf("core: installing %s for %s: %w", app.Name(), user, err)
	}
	if err := cloud.S3.SetRequireSealed(d.Bucket, true); err != nil {
		return nil, err
	}

	// Optional low-latency table with the same ciphertext-only policy.
	if spec.UseDynamo {
		d.Table = user + "-" + app.Name()
		if err := cloud.Dynamo.CreateTable(d.Table); err != nil {
			return nil, fmt.Errorf("core: installing %s for %s: %w", app.Name(), user, err)
		}
		if err := cloud.Dynamo.SetRequireSealed(d.Table, envelope.IsSealed); err != nil {
			return nil, err
		}
	}

	// Key: a per-deployment master key inside KMS.
	if err := cloud.KMS.CreateKey(d.KeyID, false); err != nil {
		return nil, fmt.Errorf("core: installing %s for %s: %w", app.Name(), user, err)
	}

	// Queues.
	for _, suffix := range spec.Queues {
		qname := user + "-" + app.Name() + "-" + suffix
		if err := cloud.SQS.CreateQueue(qname); err != nil {
			return nil, err
		}
		d.Queues[suffix] = qname
	}

	// Function role: least privilege over exactly this deployment's
	// resources.
	fnStatements := []iam.Statement{
		iam.AllowStatement(
			[]string{kms.ActionGenerateDataKey, kms.ActionDecrypt},
			[]string{kms.Resource(d.KeyID)},
		),
		iam.AllowStatement(
			[]string{"s3:*"},
			[]string{s3.BucketResource(d.Bucket), s3.BucketResource(d.Bucket) + "/*"},
		),
	}
	if d.Table != "" {
		fnStatements = append(fnStatements, iam.AllowStatement(
			[]string{"dynamodb:*"}, []string{dynamo.Resource(d.Table)},
		))
	}
	for _, qname := range d.Queues {
		fnStatements = append(fnStatements, iam.AllowStatement(
			[]string{"sqs:*"}, []string{sqs.Resource(qname)},
		))
	}
	if err := cloud.IAM.PutRole(&iam.Role{
		Name:     d.Role,
		Policies: []iam.Policy{{Name: "diy-least-privilege", Statements: fnStatements}},
	}); err != nil {
		return nil, err
	}

	// Client role: the user's own devices may poll the deployment's
	// queues and, if the app allows, read the bucket directly.
	clientStatements := []iam.Statement{}
	for _, qname := range d.Queues {
		clientStatements = append(clientStatements, iam.AllowStatement(
			[]string{sqs.ActionReceive, sqs.ActionDelete},
			[]string{sqs.Resource(qname)},
		))
	}
	if spec.ClientCanReadBucket {
		clientStatements = append(clientStatements, iam.AllowStatement(
			[]string{s3.ActionGet, s3.ActionList},
			[]string{s3.BucketResource(d.Bucket), s3.BucketResource(d.Bucket) + "/*"},
		))
	}
	if spec.ClientCanDecrypt {
		clientStatements = append(clientStatements, iam.AllowStatement(
			[]string{kms.ActionDecrypt},
			[]string{kms.Resource(d.KeyID)},
		))
	}
	if err := cloud.IAM.PutRole(&iam.Role{
		Name:     d.ClientRole,
		Policies: []iam.Policy{{Name: "diy-client", Statements: clientStatements}},
	}); err != nil {
		return nil, err
	}

	// Deployment data key, wrapped under the master key. Only the
	// wrapped form leaves this scope (it goes into the function
	// config, which the paper assumes is adversary-readable).
	adminCtx := &sim.Context{Principal: d.Role, App: app.Name(), Region: cloud.Region}
	plainKey, wrapped, err := cloud.KMS.GenerateDataKey(adminCtx, d.KeyID)
	if err != nil {
		return nil, fmt.Errorf("core: generating deployment key: %w", err)
	}
	envelope.Zero(plainKey)
	d.WrappedKey = wrapped

	// Function registration.
	config := map[string]string{
		ConfigBucket:     d.Bucket,
		ConfigTable:      d.Table,
		ConfigKeyID:      d.KeyID,
		ConfigWrappedKey: hex.EncodeToString(wrapped),
		ConfigUser:       user,
	}
	for suffix, qname := range d.Queues {
		config[ConfigQueuePref+suffix] = qname
	}
	code := spec.Code
	if len(code) == 0 {
		code = []byte("diy-app:" + app.Name() + ":v1")
	}
	err = cloud.Lambda.RegisterFunction(lambda.Function{
		Name:          d.FnName,
		Handler:       app.Handler(),
		MemoryMB:      spec.MemoryMB,
		Timeout:       spec.Timeout,
		Role:          d.Role,
		App:           app.Name(),
		Regions:       []string{cloud.Region, "us-east-1"},
		Code:          code,
		CacheDataKeys: spec.CacheDataKeys,
		Config:        config,
	})
	if err != nil {
		return nil, err
	}

	// HTTPS endpoint.
	if spec.Endpoint != "" {
		d.Endpoint = "/" + user + "/" + app.Name() + spec.Endpoint
		if err := cloud.Gateway.RegisterEndpoint(d.Endpoint, d.FnName, spec.Limit); err != nil {
			return nil, err
		}
	}

	// Inbound email triggers.
	for _, addr := range spec.InboundAddrs {
		addr = strings.ReplaceAll(addr, "%USER%", user)
		if err := cloud.SES.RegisterInbound(addr, d.FnName); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// ClientContext returns a call context for the user's own device: the
// client principal, external to the cloud, on a fresh timeline starting
// at the cloud clock's current instant. The context and its cursor are
// one allocation.
func (d *Deployment) ClientContext() *sim.Context {
	return sim.NewFlow(sim.Context{
		Principal: d.ClientRole,
		App:       d.AppName,
		Region:    d.Cloud.Region,
		External:  true,
	}, d.Cloud.Clock.Now())
}

// TracedContext is ClientContext with a distributed trace attached:
// every service hop of the request records a span, and finishing the
// trace (tr.Finish(ctx.Now())) when the flow completes folds it into
// the cloud's trace store and returns its stored view. The head-based
// sampling decision is taken here, before any span exists — an
// unsampled request returns a nil trace, and nil-safe spans make the
// untraced flow cost one pointer check per hop. The default store
// keeps every trace; a cloud with tracing disabled has no store, so
// every flow runs untraced.
func (d *Deployment) TracedContext(name string) (*sim.Context, *trace.Trace) {
	ctx := d.ClientContext()
	if !d.Cloud.Tracer.Decide(ctx.Cursor.Now()) {
		return ctx, nil
	}
	return ctx, ctx.StartTrace(d.Cloud.Tracer, name)
}

// Invoke sends one request through the HTTPS endpoint.
func (d *Deployment) Invoke(ctx *sim.Context, op string, body []byte) (lambda.Response, lambda.InvocationStats, error) {
	if d.app == nil {
		return lambda.Response{}, lambda.InvocationStats{}, ErrNotInstalled
	}
	if d.Endpoint == "" {
		return d.Cloud.Lambda.Invoke(ctx, d.FnName, lambda.Event{Source: "direct", Op: op, Body: body})
	}
	return d.Cloud.Gateway.Handle(ctx, gateway.Request{Path: d.Endpoint, Op: op, Body: body})
}

// InvokeAttested performs the §8.2 enclave-verified request flow: the
// client draws a fresh nonce, obtains a quote over the currently
// deployed code, verifies it against the app's expected measurement,
// and only then sends the request. A provider- or marketplace-side
// code swap fails verification and the request is never issued.
func (d *Deployment) InvokeAttested(ctx *sim.Context, op string, body []byte) (lambda.Response, lambda.InvocationStats, error) {
	if d.app == nil {
		return lambda.Response{}, lambda.InvocationStats{}, ErrNotInstalled
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return lambda.Response{}, lambda.InvocationStats{}, fmt.Errorf("core: attestation nonce: %w", err)
	}
	q, err := d.AttestQuote(nonce)
	if err != nil {
		return lambda.Response{}, lambda.InvocationStats{}, err
	}
	if err := d.VerifyAttestation(q, nonce); err != nil {
		return lambda.Response{}, lambda.InvocationStats{}, fmt.Errorf("core: refusing to call unattested code: %w", err)
	}
	// The attestation round trip costs one KMS-scale exchange.
	if ctx != nil && d.Cloud.Model != nil {
		ctx.Advance(d.Cloud.Model.Sample(netsim.HopKMS))
	}
	return d.Invoke(ctx, op, body)
}

// Delete removes the deployment. With data=true it also destroys the
// bucket contents and the KMS master key, making every stored
// ciphertext permanently unreadable — the paper's answer to "users have
// little control over where their data goes" in centralized services.
func (d *Deployment) Delete(data bool) error {
	if d.app == nil {
		return ErrNotInstalled
	}
	cloud := d.Cloud
	if d.Endpoint != "" {
		cloud.Gateway.RemoveEndpoint(d.Endpoint)
	}
	if err := cloud.Lambda.RemoveFunction(d.FnName); err != nil {
		return err
	}
	for _, qname := range d.Queues {
		if err := cloud.SQS.DeleteQueue(qname); err != nil {
			return err
		}
	}
	if data {
		if err := cloud.S3.DeleteBucket(d.Bucket, true); err != nil {
			return err
		}
		if d.Table != "" {
			if err := cloud.Dynamo.DeleteTable(d.Table); err != nil {
				return err
			}
		}
		if err := cloud.KMS.DeleteKey(d.KeyID); err != nil {
			return err
		}
	}
	cloud.IAM.DeleteRole(d.Role)
	cloud.IAM.DeleteRole(d.ClientRole)
	d.app = nil
	return nil
}

// AttestQuote asks the cloud's enclave platform to attest the deployed
// function code for a client-chosen nonce (§3.3 "Securing DIY with
// Enclaves").
func (d *Deployment) AttestQuote(nonce []byte) (attest.Quote, error) {
	fn, ok := d.Cloud.Lambda.Function(d.FnName)
	if !ok {
		return attest.Quote{}, ErrNotInstalled
	}
	return d.Cloud.Attest.Attest(fn.Code, nonce, nil), nil
}

// VerifyAttestation checks a quote against the app's expected code.
func (d *Deployment) VerifyAttestation(q attest.Quote, nonce []byte) error {
	spec := d.app.Spec()
	code := spec.Code
	if len(code) == 0 {
		code = []byte("diy-app:" + d.app.Name() + ":v1")
	}
	return attest.Verify(d.Cloud.Attest.PublicKey(), q, attest.Measure(code), nonce)
}
