package core

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"slices"
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
// other user's resources. It plans the installation, then applies the
// plan (InstallPlan.Apply).
func Install(cloud *Cloud, user string, app App) (*Deployment, error) {
	p, err := planInstall(cloud.Region, user, app)
	if err != nil {
		return nil, err
	}
	return p.Apply(cloud)
}

// InstallPlan is everything installing one app for one user creates
// that does not depend on the cloud it lands in: the resource names,
// the queue names in AppSpec.Queues order, both IAM policy documents,
// the function config without its wrapped key, the code, the regions,
// the endpoint path and the inbound addresses. Apply creates the
// per-cloud rest — the KMS master key, the data key and its wrapped
// form, and the registry entries — so a fleet whose accounts install
// the same app under the same user name plans it once and applies it
// per account.
//
// A plan is immutable once built, and Apply hands clouds only what
// nothing writes through: roles get the plan's policy slices at full
// capacity, so an append copies them, and each deployment gets its own
// config and Queues maps.
type InstallPlan struct {
	app    App
	spec   AppSpec
	name   string // app.Name()
	user   string
	region string

	fnName, bucket, table, keyID string
	role, clientRole, endpoint   string
	queues                       []planQueue // in spec.Queues order

	fnPolicies, clientPolicies []iam.Policy
	config                     map[string]string // all but ConfigWrappedKey
	code                       []byte
	regions                    []string
	inbound                    []string // "%USER%" expanded
}

// planQueue is one provisioned queue: its spec suffix and its name.
type planQueue struct{ suffix, name string }

// NewInstallPlan plans app for user on a cloud in the home region, the
// region of every cloud NewCloud builds.
func NewInstallPlan(user string, app App) (*InstallPlan, error) {
	return planInstall(homeRegion, user, app)
}

// planInstall works out everything Install creates on a cloud in region
// but the key material and the registry entries; it touches no cloud.
func planInstall(region, user string, app App) (*InstallPlan, error) {
	if user == "" || strings.ContainsAny(user, "/- ") {
		return nil, fmt.Errorf("core: invalid user name %q", user)
	}
	spec := app.Spec()
	name := app.Name()
	base := user + "-" + name
	p := &InstallPlan{
		app:        app,
		spec:       spec,
		name:       name,
		user:       user,
		region:     region,
		fnName:     base,
		bucket:     base,
		keyID:      base,
		role:       base + "-fn",
		clientRole: base + "-client",
		code:       codeOf(name, spec),
		regions:    []string{region, "us-east-1"},
	}
	if spec.UseDynamo {
		p.table = base
	}
	for _, suffix := range spec.Queues {
		p.queues = append(p.queues, planQueue{suffix: suffix, name: base + "-" + suffix})
	}
	if spec.Endpoint != "" {
		p.endpoint = "/" + user + "/" + name + spec.Endpoint
	}
	for _, addr := range spec.InboundAddrs {
		p.inbound = append(p.inbound, strings.ReplaceAll(addr, "%USER%", user))
	}

	// Function role: least privilege over exactly this deployment's
	// resources.
	bucketRes := []string{s3.BucketResource(p.bucket), s3.BucketResource(p.bucket) + "/*"}
	fnStatements := []iam.Statement{
		iam.AllowStatement(
			[]string{kms.ActionGenerateDataKey, kms.ActionDecrypt},
			[]string{kms.Resource(p.keyID)},
		),
		iam.AllowStatement([]string{"s3:*"}, bucketRes),
	}
	if p.table != "" {
		fnStatements = append(fnStatements, iam.AllowStatement(
			[]string{"dynamodb:*"}, []string{dynamo.Resource(p.table)},
		))
	}
	for _, q := range p.queues {
		fnStatements = append(fnStatements, iam.AllowStatement(
			[]string{"sqs:*"}, []string{sqs.Resource(q.name)},
		))
	}
	p.fnPolicies = []iam.Policy{{Name: "diy-least-privilege", Statements: slices.Clip(fnStatements)}}

	// Client role: the user's own devices may poll the deployment's
	// queues and, if the app allows, read the bucket directly.
	clientStatements := []iam.Statement{}
	for _, q := range p.queues {
		clientStatements = append(clientStatements, iam.AllowStatement(
			[]string{sqs.ActionReceive, sqs.ActionDelete},
			[]string{sqs.Resource(q.name)},
		))
	}
	if spec.ClientCanReadBucket {
		clientStatements = append(clientStatements, iam.AllowStatement(
			[]string{s3.ActionGet, s3.ActionList}, bucketRes,
		))
	}
	if spec.ClientCanDecrypt {
		clientStatements = append(clientStatements, iam.AllowStatement(
			[]string{kms.ActionDecrypt},
			[]string{kms.Resource(p.keyID)},
		))
	}
	p.clientPolicies = []iam.Policy{{Name: "diy-client", Statements: slices.Clip(clientStatements)}}

	p.config = map[string]string{
		ConfigBucket: p.bucket,
		ConfigTable:  p.table,
		ConfigKeyID:  p.keyID,
		ConfigUser:   user,
	}
	for _, q := range p.queues {
		p.config[ConfigQueuePref+q.suffix] = q.name
	}
	return p, nil
}

// codeOf is the deployment package of an app with spec: its Code, or a
// name+version placeholder.
func codeOf(name string, spec AppSpec) []byte {
	if len(spec.Code) == 0 {
		return []byte("diy-app:" + name + ":v1")
	}
	return spec.Code
}

// Apply installs the plan on cloud, which must be in the plan's region.
// It creates the deployment's bucket (and table), KMS master key,
// queues and roles, generates and wraps the deployment data key, and
// registers the function and its triggers.
func (p *InstallPlan) Apply(cloud *Cloud) (*Deployment, error) {
	name := p.name
	if cloud.Region != p.region {
		return nil, fmt.Errorf("core: installing %s for %s: plan is for region %s, cloud is in %s", name, p.user, p.region, cloud.Region)
	}
	d := &Deployment{
		Cloud:      cloud,
		User:       p.user,
		app:        p.app,
		AppName:    name,
		FnName:     p.fnName,
		Bucket:     p.bucket,
		Table:      p.table,
		KeyID:      p.keyID,
		Role:       p.role,
		ClientRole: p.clientRole,
		Endpoint:   p.endpoint,
		Queues:     make(map[string]string, len(p.queues)),
	}

	// Storage: a bucket that refuses plaintext.
	if err := cloud.S3.CreateBucket(d.Bucket); err != nil {
		return nil, fmt.Errorf("core: installing %s for %s: %w", name, p.user, err)
	}
	if err := cloud.S3.SetRequireSealed(d.Bucket, true); err != nil {
		return nil, err
	}

	// Optional low-latency table with the same ciphertext-only policy.
	if d.Table != "" {
		if err := cloud.Dynamo.CreateTable(d.Table); err != nil {
			return nil, fmt.Errorf("core: installing %s for %s: %w", name, p.user, err)
		}
		if err := cloud.Dynamo.SetRequireSealed(d.Table, envelope.IsSealed); err != nil {
			return nil, err
		}
	}

	// Key: a per-deployment master key inside KMS.
	if err := cloud.KMS.CreateKey(d.KeyID, false); err != nil {
		return nil, fmt.Errorf("core: installing %s for %s: %w", name, p.user, err)
	}

	for _, q := range p.queues {
		if err := cloud.SQS.CreateQueue(q.name); err != nil {
			return nil, err
		}
		d.Queues[q.suffix] = q.name
	}

	if err := cloud.IAM.PutRole(&iam.Role{Name: d.Role, Policies: p.fnPolicies}); err != nil {
		return nil, err
	}
	if err := cloud.IAM.PutRole(&iam.Role{Name: d.ClientRole, Policies: p.clientPolicies}); err != nil {
		return nil, err
	}

	// Deployment data key, wrapped under the master key. Only the
	// wrapped form leaves this scope (it goes into the function
	// config, which the paper assumes is adversary-readable).
	adminCtx := &sim.Context{Principal: d.Role, App: name, Region: cloud.Region}
	plainKey, wrapped, err := cloud.KMS.GenerateDataKey(adminCtx, d.KeyID)
	if err != nil {
		return nil, fmt.Errorf("core: generating deployment key: %w", err)
	}
	envelope.Zero(plainKey)
	d.WrappedKey = wrapped

	// Function registration.
	config := maps.Clone(p.config)
	config[ConfigWrappedKey] = hex.EncodeToString(wrapped)
	err = cloud.Lambda.RegisterFunction(lambda.Function{
		Name:          d.FnName,
		Handler:       p.app.Handler(),
		MemoryMB:      p.spec.MemoryMB,
		Timeout:       p.spec.Timeout,
		Role:          d.Role,
		App:           name,
		Regions:       p.regions,
		Code:          p.code,
		CacheDataKeys: p.spec.CacheDataKeys,
		Config:        config,
	})
	if err != nil {
		return nil, err
	}

	// HTTPS endpoint.
	if d.Endpoint != "" {
		if err := cloud.Gateway.RegisterEndpoint(d.Endpoint, d.FnName, p.spec.Limit); err != nil {
			return nil, err
		}
	}

	// Inbound email triggers.
	for _, addr := range p.inbound {
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
	code := codeOf(d.app.Name(), d.app.Spec())
	return attest.Verify(d.Cloud.Attest.PublicKey(), q, attest.Measure(code), nonce)
}
