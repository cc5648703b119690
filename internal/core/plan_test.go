package core_test

import (
	"maps"
	"reflect"
	"testing"

	"repro/internal/apps/chat"
	"repro/internal/apps/iot"
	"repro/internal/cloudsim/iam"
	"repro/internal/core"
)

// fleetCloud builds a cloud the way the fleet builds an account's:
// on a shared bundle, with observability, logging and tracing off.
func fleetCloud(t testing.TB, shared *core.Shared) *core.Cloud {
	t.Helper()
	c, err := core.NewCloud(core.CloudOptions{
		Shared:               shared,
		DisableObservability: true,
		DisableLogging:       true,
		DisableTracing:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newShared(t testing.TB) *core.Shared {
	t.Helper()
	s, err := core.NewShared(nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// roleDoc returns a deep copy of a role's policies, so a later write
// through any alias cannot change the snapshot.
func roleDoc(t *testing.T, c *core.Cloud, name string) []iam.Policy {
	t.Helper()
	r, ok := c.IAM.Role(name)
	if !ok {
		t.Fatalf("no role %q", name)
	}
	out := make([]iam.Policy, len(r.Policies))
	for i, p := range r.Policies {
		out[i] = iam.Policy{Name: p.Name}
		for _, st := range p.Statements {
			out[i].Statements = append(out[i].Statements, iam.Statement{
				Effect:    st.Effect,
				Actions:   append([]string(nil), st.Actions...),
				Resources: append([]string(nil), st.Resources...),
			})
		}
	}
	return out
}

// Install's role documents list their statements in AppSpec.Queues
// order, not in map order: IoT's two queues give the same function and
// client roles on every fresh cloud.
func TestInstallRoleDocumentsDeterministic(t *testing.T) {
	shared := newShared(t)
	var fnWant, clientWant []iam.Policy
	for i := 0; i < 20; i++ {
		c := fleetCloud(t, shared)
		d, err := core.Install(c, "alice", iot.App{})
		if err != nil {
			t.Fatal(err)
		}
		fn, client := roleDoc(t, c, d.Role), roleDoc(t, c, d.ClientRole)
		if i == 0 {
			fnWant, clientWant = fn, client
			continue
		}
		if !reflect.DeepEqual(fn, fnWant) {
			t.Fatalf("install %d: function role\n%+v\nwant (install 0)\n%+v", i, fn, fnWant)
		}
		if !reflect.DeepEqual(client, clientWant) {
			t.Fatalf("install %d: client role\n%+v\nwant (install 0)\n%+v", i, client, clientWant)
		}
	}
}

// One plan applied to two clouds shares its documents between them, so
// nothing done to one deployment may show through in the other: not a
// role override that appends to the policies it read back, not a
// config update, not a write to its Queues map, not deleting it with
// its data.
func TestSharedPlanIsolation(t *testing.T) {
	shared := newShared(t)
	plan, err := core.NewInstallPlan("op", iot.App{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := fleetCloud(t, shared), fleetCloud(t, shared)
	da, err := plan.Apply(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := plan.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	fnB, clientB := roleDoc(t, b, db.Role), roleDoc(t, b, db.ClientRole)
	queuesB := maps.Clone(db.Queues)
	f, _ := b.Lambda.Function(db.FnName)
	configB := maps.Clone(f.Config)

	// Cloud A: rebind a config key, delete the deployment with its
	// data, write its Queues, then put back both roles overridden by
	// appending to the documents read back before the delete — to the
	// policies, to the first policy's statements, and to the first
	// statement's lists.
	roles := map[string]*iam.Role{}
	for _, name := range []string{da.Role, da.ClientRole} {
		roles[name], _ = a.IAM.Role(name)
	}
	if err := a.Lambda.UpdateConfig(da.FnName, map[string]string{core.ConfigBucket: "elsewhere", "extra": "x"}); err != nil {
		t.Fatal(err)
	}
	if err := da.Delete(true); err != nil {
		t.Fatal(err)
	}
	for suffix := range da.Queues {
		da.Queues[suffix] = "rewritten"
	}
	da.Queues["extra"] = "x"
	for _, r := range roles {
		over := *r
		over.Policies = append(over.Policies, iam.Policy{Name: "extra"})
		over.Policies[0].Statements = append(over.Policies[0].Statements,
			iam.DenyStatement([]string{"*"}, []string{"*"}))
		st := &over.Policies[0].Statements[0]
		st.Actions = append(st.Actions, "sqs:*")
		st.Resources = append(st.Resources, "*")
		if err := a.IAM.PutRole(&over); err != nil {
			t.Fatal(err)
		}
	}

	if got := roleDoc(t, b, db.Role); !reflect.DeepEqual(got, fnB) {
		t.Errorf("cloud B's function role changed:\n%+v\nwant\n%+v", got, fnB)
	}
	if got := roleDoc(t, b, db.ClientRole); !reflect.DeepEqual(got, clientB) {
		t.Errorf("cloud B's client role changed:\n%+v\nwant\n%+v", got, clientB)
	}
	if !reflect.DeepEqual(db.Queues, queuesB) {
		t.Errorf("cloud B's Deployment.Queues = %v, want %v", db.Queues, queuesB)
	}
	f, ok := b.Lambda.Function(db.FnName)
	if !ok {
		t.Fatal("cloud B's function is gone")
	}
	if !reflect.DeepEqual(f.Config, configB) {
		t.Errorf("cloud B's function config = %v, want %v", f.Config, configB)
	}
	if !b.KMS.KeyExists(db.KeyID) || !b.S3.BucketExists(db.Bucket) {
		t.Error("deleting cloud A's deployment removed cloud B's key or bucket")
	}
	if a.KMS.KeyExists(da.KeyID) || a.S3.BucketExists(da.Bucket) {
		t.Error("cloud A's key or bucket survived Delete(true)")
	}
}

// A plan is for the home region: applying it to a cloud elsewhere fails
// and creates nothing.
func TestPlanRegionMismatch(t *testing.T) {
	plan, err := core.NewInstallPlan("op", iot.App{})
	if err != nil {
		t.Fatal(err)
	}
	c := fleetCloud(t, newShared(t))
	c.Region = "eu-west-1"
	if _, err := plan.Apply(c); err == nil {
		t.Fatal("plan for the home region applied to a cloud in eu-west-1")
	}
	if c.S3.BucketExists("op-iot") || c.KMS.KeyExists("op-iot") {
		t.Error("a refused plan created resources")
	}
}

// What applying the fleet's chat plan to a fresh fleet-shaped cloud
// allocates: the per-account rest of an install (the deployment and its
// Queues map, the registry entries, the KMS master key and the wrapped
// data key, the function config). The plan's names and documents are
// shared, not rebuilt.
func TestApplyChatPlanAllocs(t *testing.T) {
	const runs = 50
	shared := newShared(t)
	plan, err := core.NewInstallPlan("op", chat.App{Members: []string{"owner", "peer"}, MemoryMB: 448})
	if err != nil {
		t.Fatal(err)
	}
	clouds := make([]*core.Cloud, runs+1) // AllocsPerRun runs once more to warm up
	for i := range clouds {
		clouds[i] = fleetCloud(t, shared)
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		if _, err := plan.Apply(clouds[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if got != applyChatAllocs {
		t.Errorf("applying the chat plan: %v allocs, want exactly %v", got, applyChatAllocs)
	}
}

// applyChatAllocs is TestApplyChatPlanAllocs's pin.
const applyChatAllocs = 35
