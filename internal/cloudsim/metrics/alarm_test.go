package metrics

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/pricing"
)

func latencyAlarm(period time.Duration, evalPeriods int, threshold float64) AlarmConfig {
	return AlarmConfig{
		Name:        "latency-high",
		Namespace:   "lambda/chat-fn",
		Metric:      MetricPlaneLatencyMs,
		Stat:        StatAvg,
		Period:      period,
		EvalPeriods: evalPeriods,
		Comparison:  GreaterThanThreshold,
		Threshold:   threshold,
	}
}

func TestAlarmLifecycle(t *testing.T) {
	s := New()
	var fired []Transition
	a, err := s.PutAlarm(latencyAlarm(time.Minute, 2, 100), t0, func(tr Transition) {
		fired = append(fired, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.State() != StateInsufficient {
		t.Fatalf("initial state = %s", a.State())
	}

	// Two healthy periods -> OK.
	s.Record("lambda/chat-fn", MetricPlaneLatencyMs, t0.Add(30*time.Second), 40)
	s.Record("lambda/chat-fn", MetricPlaneLatencyMs, t0.Add(90*time.Second), 60)
	s.EvaluateAlarms(t0.Add(2 * time.Minute))
	if a.State() != StateOK {
		t.Fatalf("after healthy periods state = %s", a.State())
	}

	// One breaching period is not enough with EvalPeriods=2...
	s.Record("lambda/chat-fn", MetricPlaneLatencyMs, t0.Add(150*time.Second), 500)
	s.EvaluateAlarms(t0.Add(3 * time.Minute))
	if a.State() != StateOK {
		t.Fatalf("after one breach state = %s", a.State())
	}
	// ...two consecutive are.
	s.Record("lambda/chat-fn", MetricPlaneLatencyMs, t0.Add(210*time.Second), 400)
	s.EvaluateAlarms(t0.Add(4 * time.Minute))
	if a.State() != StateAlarm {
		t.Fatalf("after two breaches state = %s", a.State())
	}

	// Default missing policy: two empty periods -> INSUFFICIENT_DATA.
	s.EvaluateAlarms(t0.Add(6 * time.Minute))
	if a.State() != StateInsufficient {
		t.Fatalf("after missing data state = %s", a.State())
	}

	trs := a.Transitions()
	if len(trs) != 3 || len(fired) != 3 {
		t.Fatalf("transitions = %d, fired = %d, want 3/3", len(trs), len(fired))
	}
	want := []struct{ from, to AlarmState }{
		{StateInsufficient, StateOK},
		{StateOK, StateAlarm},
		{StateAlarm, StateInsufficient},
	}
	for i, w := range want {
		if trs[i].From != w.from || trs[i].To != w.to {
			t.Errorf("transition %d = %s -> %s, want %s -> %s", i, trs[i].From, trs[i].To, w.from, w.to)
		}
	}
}

// A single EvaluateAlarms call after a long simulated stretch must
// replay every elapsed period in order — the catch-up produces the
// same log as per-period evaluation.
func TestAlarmCatchUpEvaluation(t *testing.T) {
	record := func(s *Service) {
		for i := 0; i < 10; i++ {
			v := 10.0
			if i >= 4 && i <= 6 {
				v = 900 // minutes 4..6 breach
			}
			s.Record("lambda/chat-fn", MetricPlaneLatencyMs, t0.Add(time.Duration(i)*time.Minute+30*time.Second), v)
		}
	}

	stepwise := New()
	record(stepwise)
	aStep, _ := stepwise.PutAlarm(latencyAlarm(time.Minute, 2, 100), t0, nil)
	for i := 1; i <= 10; i++ {
		stepwise.EvaluateAlarms(t0.Add(time.Duration(i) * time.Minute))
	}

	batch := New()
	record(batch)
	aBatch, _ := batch.PutAlarm(latencyAlarm(time.Minute, 2, 100), t0, nil)
	batch.EvaluateAlarms(t0.Add(10 * time.Minute))

	sLog, bLog := aStep.Transitions(), aBatch.Transitions()
	if len(sLog) != len(bLog) {
		t.Fatalf("stepwise %d transitions, batch %d", len(sLog), len(bLog))
	}
	for i := range sLog {
		if sLog[i].String() != bLog[i].String() {
			t.Errorf("transition %d differs:\n  stepwise: %s\n  batch:    %s", i, sLog[i], bLog[i])
		}
	}
	if aBatch.State() != StateOK {
		t.Fatalf("final state = %s", aBatch.State())
	}
}

func TestAlarmMissingPolicies(t *testing.T) {
	s := New()
	nb := latencyAlarm(time.Minute, 1, 100)
	nb.Name = "nb"
	nb.Missing = MissingNotBreaching
	br := latencyAlarm(time.Minute, 1, 100)
	br.Name = "br"
	br.Missing = MissingBreaching
	aNB, _ := s.PutAlarm(nb, t0, nil)
	aBR, _ := s.PutAlarm(br, t0, nil)
	s.EvaluateAlarms(t0.Add(time.Minute))
	if aNB.State() != StateOK {
		t.Errorf("notBreaching empty period -> %s, want OK", aNB.State())
	}
	if aBR.State() != StateAlarm {
		t.Errorf("breaching empty period -> %s, want ALARM", aBR.State())
	}
}

func TestAlarmComparisons(t *testing.T) {
	cases := []struct {
		cmp    Comparison
		v      float64
		breach bool
	}{
		{GreaterThanThreshold, 101, true},
		{GreaterThanThreshold, 100, false},
		{GreaterThanOrEqualToThreshold, 100, true},
		{GreaterThanOrEqualToThreshold, 99, false},
		{LessThanThreshold, 99, true},
		{LessThanThreshold, 100, false},
		{LessThanOrEqualToThreshold, 100, true},
		{LessThanOrEqualToThreshold, 101, false},
	}
	for i, c := range cases {
		s := New()
		cfg := latencyAlarm(time.Minute, 1, 100)
		cfg.Name = fmt.Sprintf("cmp-%d", i)
		cfg.Comparison = c.cmp
		a, err := s.PutAlarm(cfg, t0, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Record(cfg.Namespace, cfg.Metric, t0.Add(30*time.Second), c.v)
		s.EvaluateAlarms(t0.Add(time.Minute))
		want := StateOK
		if c.breach {
			want = StateAlarm
		}
		if a.State() != want {
			t.Errorf("case %d: %g %s 100 -> %s, want %s", i, c.v, c.cmp, a.State(), want)
		}
	}
}

func TestAlarmValidation(t *testing.T) {
	s := New()
	bad := []AlarmConfig{
		{},
		{Name: "a", Namespace: "ns", Metric: "not.registered", Stat: StatAvg, Period: time.Minute, EvalPeriods: 1, Comparison: GreaterThanThreshold},
		{Name: "a", Namespace: "ns", Metric: MetricPlaneLatencyMs, Stat: "median", Period: time.Minute, EvalPeriods: 1, Comparison: GreaterThanThreshold},
		{Name: "a", Namespace: "ns", Metric: MetricPlaneLatencyMs, Stat: StatAvg, Period: time.Minute, EvalPeriods: 1, Comparison: "!="},
		{Name: "a", Namespace: "ns", Metric: MetricPlaneLatencyMs, Stat: StatAvg, Period: 0, EvalPeriods: 1, Comparison: GreaterThanThreshold},
		{Name: "a", Namespace: "ns", Metric: MetricPlaneLatencyMs, Stat: StatAvg, Period: time.Minute, EvalPeriods: 0, Comparison: GreaterThanThreshold},
	}
	for i, cfg := range bad {
		if _, err := s.PutAlarm(cfg, t0, nil); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := s.PutAlarm(latencyAlarm(time.Minute, 1, 100), t0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutAlarm(latencyAlarm(time.Minute, 1, 100), t0, nil); err == nil {
		t.Error("duplicate alarm name accepted")
	}
	if n := s.AlarmCount(); n != 1 {
		t.Fatalf("alarm count = %d", n)
	}
}

// The budget alarm fires within one period of the cumulative spend
// gauge crossing the budget, and quiet periods count as not breaching.
func TestBudgetAlarm(t *testing.T) {
	s := New()
	cfg := BudgetAlarm("monthly-budget", pricing.FromDollars(0.001), time.Hour)
	a, err := s.PutAlarm(cfg, t0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Spend climbs 250 microdollars per hour.
	var cum int64
	for h := 0; h < 8; h++ {
		cum += 250_000
		s.Record(AccountNamespace, MetricAccountCostNanos, t0.Add(time.Duration(h)*time.Hour+time.Minute), float64(cum))
	}
	s.EvaluateAlarms(t0.Add(3 * time.Hour))
	if a.State() != StateOK {
		t.Fatalf("under budget state = %s", a.State())
	}
	s.EvaluateAlarms(t0.Add(8 * time.Hour))
	if a.State() != StateAlarm {
		t.Fatalf("over budget state = %s", a.State())
	}
	// The transition lands on the boundary ending the first period
	// whose Max exceeded $0.001 (cumulative hits 1,250,000 nano at h=4).
	trs := a.Transitions()
	last := trs[len(trs)-1]
	if !last.At.Equal(t0.Add(5 * time.Hour)) {
		t.Fatalf("alarm fired at %v", last.At)
	}
	// Climbing spend walks the whole chain exactly once:
	// INSUFFICIENT_DATA -> OK -> ALARM.
	if len(trs) != 2 ||
		trs[0].From != StateInsufficient || trs[0].To != StateOK ||
		trs[1].From != StateOK || trs[1].To != StateAlarm {
		t.Errorf("transitions = %v, want INSUFFICIENT_DATA -> OK -> ALARM", trs)
	}
}

// The determinism gate: the same seeded scenario must produce a
// bit-identical transition log every run. scripts/check.sh runs this
// test twice and diffs the logged "transition:" lines across the two
// processes; in-process we also compare two runs directly.
func TestAlarmTransitionsDeterministic(t *testing.T) {
	scenario := func(seed int64) []string {
		s := New()
		cfgLat := latencyAlarm(time.Minute, 2, 120)
		cfgBudget := BudgetAlarm("budget", pricing.Money(2_000_000), 5*time.Minute)
		aLat, err := s.PutAlarm(cfgLat, t0, nil)
		if err != nil {
			t.Fatal(err)
		}
		aBudget, err := s.PutAlarm(cfgBudget, t0, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var cum float64
		for i := 0; i < 600; i++ {
			at := t0.Add(time.Duration(i) * 6 * time.Second)
			lat := 20 + 200*rng.Float64()
			s.Record("lambda/chat-fn", MetricPlaneLatencyMs, at, lat)
			cum += 1000 * rng.Float64()
			s.Record(AccountNamespace, MetricAccountCostNanos, at, cum)
			if i%50 == 0 {
				s.EvaluateAlarms(at)
			}
		}
		s.EvaluateAlarms(t0.Add(time.Hour + 5*time.Minute))
		var log []string
		for _, tr := range append(aLat.Transitions(), aBudget.Transitions()...) {
			log = append(log, tr.String())
		}
		return log
	}

	first := scenario(7)
	second := scenario(7)
	if len(first) == 0 {
		t.Fatal("scenario produced no transitions")
	}
	if len(first) != len(second) {
		t.Fatalf("run lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("run divergence at %d:\n  first:  %s\n  second: %s", i, first[i], second[i])
		}
		t.Logf("transition: %s", first[i])
	}
}
