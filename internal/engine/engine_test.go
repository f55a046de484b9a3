package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"qclique/internal/congest"
	"qclique/internal/graph"
)

// fakeStrategy builds a configurable pipeline for engine unit tests.
type fakeStrategy struct {
	name   string
	stages func(req *Request, out *Outcome) (*Plan, error)
}

func (f fakeStrategy) Name() string               { return f.name }
func (f fakeStrategy) Guarantee(float64) float64  { return 1 }
func (f fakeStrategy) Capabilities() Capabilities { return Capabilities{} }
func (f fakeStrategy) PredictCost(graph.Features, float64) CostPrior {
	return CostPrior{Rounds: 1, WallNs: 1}
}
func (f fakeStrategy) Stages(req *Request, out *Outcome) (*Plan, error) {
	return f.stages(req, out)
}

func TestRunRecordsPerStageRoundsSummingToTotal(t *testing.T) {
	net, err := congest.NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	s := fakeStrategy{name: "fake", stages: func(req *Request, out *Outcome) (*Plan, error) {
		return &Plan{Net: net, Stages: []Stage{
			{Name: "a", Run: func(context.Context) error { return net.Broadcast("a", 0, 3) }},
			{Name: "b", Run: func(context.Context) error { return net.Broadcast("b", 1, 5) }},
			{Name: "c", Run: func(context.Context) error { return nil }},
		}}, nil
	}}
	out, err := Run(context.Background(), s, &Request{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(out.Stages))
	}
	if out.Stages[0].Rounds != 3 || out.Stages[1].Rounds != 5 || out.Stages[2].Rounds != 0 {
		t.Fatalf("per-stage rounds = %+v, want 3/5/0", out.Stages)
	}
	if got := SumRounds(out.Stages); got != out.Rounds || out.Rounds != 8 {
		t.Fatalf("sum %d, total %d, want both 8", got, out.Rounds)
	}
}

func TestRunRejectsUnattributedNetworkActivity(t *testing.T) {
	net, err := congest.NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	s := fakeStrategy{name: "leaky", stages: func(req *Request, out *Outcome) (*Plan, error) {
		// Charging during plan construction means the rounds belong to no
		// stage — the engine must refuse rather than under-attribute.
		if err := net.Broadcast("outside", 0, 2); err != nil {
			return nil, err
		}
		return &Plan{Net: net, Stages: []Stage{
			{Name: "only", Run: func(context.Context) error { return nil }},
		}}, nil
	}}
	if _, err := Run(context.Background(), s, &Request{}); err == nil {
		t.Fatal("engine accepted network activity outside any stage")
	}
}

func TestRunSkipsStagesAndMarksThem(t *testing.T) {
	ran := false
	s := fakeStrategy{name: "skippy", stages: func(req *Request, out *Outcome) (*Plan, error) {
		return &Plan{Stages: []Stage{
			{Name: "live", Run: func(context.Context) error { return nil }},
			{Name: "dead", Skip: func() bool { return true }, Run: func(context.Context) error {
				ran = true
				return nil
			}},
		}}, nil
	}}
	out, err := Run(context.Background(), s, &Request{})
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("skipped stage ran")
	}
	if !out.Stages[1].Skipped || out.Stages[1].Rounds != 0 {
		t.Fatalf("skipped stage stat = %+v, want Skipped with zero cost", out.Stages[1])
	}
}

func TestRunCancellationReturnsPartialTelemetryAndCleansUp(t *testing.T) {
	net, err := congest.NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := fakeStrategy{name: "cancelled", stages: func(req *Request, out *Outcome) (*Plan, error) {
		return &Plan{Net: net, Stages: []Stage{
			{Name: "first", Run: func(context.Context) error {
				if err := net.Broadcast("first", 0, 7); err != nil {
					return err
				}
				cancel() // checkpoint before the next stage must fire
				return nil
			}},
			{Name: "second", Run: func(context.Context) error {
				t.Fatal("stage after cancellation ran")
				return nil
			}},
		}}, nil
	}}
	out, err := Run(ctx, s, &Request{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out == nil || len(out.Stages) != 1 || out.Stages[0].Rounds != 7 {
		t.Fatalf("partial outcome = %+v, want the first stage's telemetry", out)
	}
	if out.Rounds != 7 {
		t.Fatalf("partial Rounds = %d, want 7", out.Rounds)
	}
	if out.Dist != nil {
		t.Fatal("cancelled outcome must not carry a distance matrix")
	}
}

func TestRunStageErrorCleansUp(t *testing.T) {
	boom := errors.New("boom")
	s := fakeStrategy{name: "failing", stages: func(req *Request, out *Outcome) (*Plan, error) {
		return &Plan{Stages: []Stage{
			{Name: "explode", Run: func(context.Context) error { return boom }},
		}}, nil
	}}
	out, err := Run(context.Background(), s, &Request{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the stage error", err)
	}
	if len(out.Stages) != 1 {
		t.Fatalf("stages = %+v, want the failing stage's (partial) stat", out.Stages)
	}
}

func TestRunStageHookSeesEveryBoundary(t *testing.T) {
	var seen []string
	s := fakeStrategy{name: "hooked", stages: func(req *Request, out *Outcome) (*Plan, error) {
		return &Plan{Stages: []Stage{
			{Name: "one", Run: func(context.Context) error { return nil }},
			{Name: "two", Run: func(context.Context) error { return nil }},
		}}, nil
	}}
	req := &Request{StageHook: func(i int, name string) { seen = append(seen, fmt.Sprintf("%d:%s", i, name)) }}
	if _, err := Run(context.Background(), s, req); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != "0:one" || seen[1] != "1:two" {
		t.Fatalf("hook saw %v", seen)
	}
}

func TestRegistryLookupAndAliases(t *testing.T) {
	// The core and approx packages are not imported here; register a
	// private strategy to exercise the registry mechanics in isolation.
	s := fakeStrategy{name: "test-registry-entry", stages: nil}
	Register(s, "test-registry-alias")
	if got, ok := Lookup("test-registry-entry"); !ok || got.Name() != s.name {
		t.Fatalf("Lookup(canonical) = %v, %v", got, ok)
	}
	if got, ok := Lookup("test-registry-alias"); !ok || got.Name() != s.name {
		t.Fatalf("Lookup(alias) = %v, %v", got, ok)
	}
	if _, ok := Lookup("definitely-not-registered"); ok {
		t.Fatal("Lookup invented a strategy")
	}
	names := Names()
	count := 0
	for _, n := range names {
		if n == "test-registry-entry" {
			count++
		}
		if n == "test-registry-alias" {
			t.Fatal("aliases must not appear in Names()")
		}
	}
	if count != 1 {
		t.Fatalf("canonical name appears %d times in %v", count, names)
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(fakeStrategy{name: "dup-entry"})
	Register(fakeStrategy{name: "dup-entry"})
}

// faultErr builds a wrapped unrecovered-fault error the retry loop matches.
func faultErr(label string) error {
	return fmt.Errorf("exchange %q: %w", label, &congest.FaultError{Kind: congest.FaultCorrupt, Node: -1, Label: label})
}

func TestRetryRecoversFromFaultError(t *testing.T) {
	net, err := congest.NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	attempts := 0
	s := fakeStrategy{name: "flaky", stages: func(req *Request, out *Outcome) (*Plan, error) {
		return &Plan{Net: net, Retry: RetryPolicy{MaxRetries: 3, Backoff: time.Microsecond}, Stages: []Stage{
			{Name: "work", Run: func(context.Context) error {
				attempts++
				if err := net.Broadcast("work", 0, 2); err != nil {
					return err
				}
				if attempts <= 2 {
					return faultErr("work")
				}
				return nil
			}},
		}}, nil
	}}
	out, err := Run(context.Background(), s, &Request{})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	st := out.Stages[0]
	if st.Retries != 2 {
		t.Errorf("Retries = %d, want 2", st.Retries)
	}
	if st.Backoff <= 0 {
		t.Errorf("Backoff = %v, want > 0", st.Backoff)
	}
	// The stage stat aggregates every attempt, so the stage-sum invariant
	// holds under retry: 3 attempts x 2 rounds.
	if st.Rounds != 6 || out.Rounds != 6 || SumRounds(out.Stages) != out.Rounds {
		t.Errorf("rounds: stage %d, total %d, want both 6", st.Rounds, out.Rounds)
	}
}

func TestRetryExhaustionSurfacesFaultError(t *testing.T) {
	net, err := congest.NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	s := fakeStrategy{name: "doomed", stages: func(req *Request, out *Outcome) (*Plan, error) {
		return &Plan{Net: net, Retry: RetryPolicy{MaxRetries: 2}, Stages: []Stage{
			{Name: "work", Run: func(context.Context) error {
				if err := net.Broadcast("work", 0, 1); err != nil {
					return err
				}
				return faultErr("work")
			}},
		}}, nil
	}}
	out, err := Run(context.Background(), s, &Request{})
	var fe *congest.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want FaultError after exhaustion, got %v", err)
	}
	if out == nil || len(out.Stages) != 1 || out.Stages[0].Retries != 2 {
		t.Fatalf("partial telemetry missing or wrong: %+v", out)
	}
	if out.Stages[0].Rounds != 3 || out.Rounds != 3 {
		t.Errorf("rounds: stage %d, total %d, want both 3 (initial + 2 retries)", out.Stages[0].Rounds, out.Rounds)
	}
}

func TestRetryIgnoresNonFaultErrors(t *testing.T) {
	attempts := 0
	boom := errors.New("boom")
	s := fakeStrategy{name: "hard-fail", stages: func(req *Request, out *Outcome) (*Plan, error) {
		return &Plan{Retry: RetryPolicy{MaxRetries: 5}, Stages: []Stage{
			{Name: "work", Run: func(context.Context) error { attempts++; return boom }},
		}}, nil
	}}
	out, err := Run(context.Background(), s, &Request{})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if attempts != 1 {
		t.Errorf("non-fault error retried: %d attempts", attempts)
	}
	if out.Stages[0].Retries != 0 {
		t.Errorf("Retries = %d, want 0", out.Stages[0].Retries)
	}
}

func TestRetryBackoffHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := fakeStrategy{name: "slow", stages: func(req *Request, out *Outcome) (*Plan, error) {
		return &Plan{Retry: RetryPolicy{MaxRetries: 3, Backoff: time.Hour}, Stages: []Stage{
			{Name: "work", Run: func(context.Context) error {
				cancel() // the deadline expires while the backoff would wait
				return faultErr("work")
			}},
		}}, nil
	}}
	_, err := Run(ctx, s, &Request{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from backoff, got %v", err)
	}
}

// TestStageStatJSON pins the wire form of stage telemetry: the durations
// encode as integer nanoseconds under wall_ns and backoff_ns, in the key
// order solve responses have always carried (benchmark reports read
// wall_ns from them).
func TestStageStatJSON(t *testing.T) {
	st := StageStat{Name: "square-1", Rounds: 3, Words: 40, Phases: 2, Wall: 1500, Allocs: 7, Retries: 1, Backoff: 250 * time.Microsecond}
	got, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"square-1","rounds":3,"words":40,"phases":2,"wall_ns":1500,"allocs":7,"retries":1,"backoff_ns":250000}`
	if string(got) != want {
		t.Fatalf("encoded %s, want %s", got, want)
	}
}
