package task

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewRecordInitialState(t *testing.T) {
	r := NewRecord(1, "app", []any{1, 2}, nil)
	if r.State() != Unsched {
		t.Fatalf("state = %v", r.State())
	}
	if r.Future == nil || r.Future.TaskID != 1 {
		t.Fatal("future not bound to task id")
	}
	if r.SubmitTime.IsZero() {
		t.Fatal("submit time unset")
	}
}

func TestLegalTransitionChain(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	for _, s := range []State{Pending, Launched, Running, Done} {
		if err := r.SetState(s); err != nil {
			t.Fatalf("SetState(%v): %v", s, err)
		}
	}
	if r.State() != Done {
		t.Fatalf("final state = %v", r.State())
	}
}

func TestIllegalTransitionRejected(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	if err := r.SetState(Running); err == nil {
		t.Fatal("Unsched -> Running allowed")
	}
	if err := r.SetState(Done); err == nil {
		t.Fatal("Unsched -> Done allowed")
	}
}

func TestTerminalStatesSticky(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	_ = r.SetState(Pending)
	_ = r.SetState(Launched)
	_ = r.SetState(Done)
	if err := r.SetState(Running); err == nil {
		t.Fatal("transition out of Done allowed")
	}
	if err := r.SetState(Done); err != nil {
		t.Fatalf("idempotent set to same state should be nil: %v", err)
	}
}

func TestRetryLoopTransitions(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	_ = r.SetState(Pending)
	_ = r.SetState(Launched)
	if err := r.SetState(Retrying); err != nil {
		t.Fatalf("Launched -> Retrying: %v", err)
	}
	if err := r.SetState(Launched); err != nil {
		t.Fatalf("Retrying -> Launched: %v", err)
	}
	_ = r.SetState(Running)
	if err := r.SetState(Retrying); err != nil {
		t.Fatalf("Running -> Retrying: %v", err)
	}
	if err := r.SetState(Failed); err != nil {
		t.Fatalf("Retrying -> Failed: %v", err)
	}
}

func TestMemoizedPath(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	if err := r.SetState(Memoized); err != nil {
		t.Fatalf("Unsched -> Memoized: %v", err)
	}
	if !r.State().Terminal() {
		t.Fatal("Memoized should be terminal")
	}
}

func TestTransitionsRecorded(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	_ = r.SetState(Pending)
	_ = r.SetState(Launched)
	_ = r.SetState(Done)
	tr := r.Transitions()
	if len(tr) != 3 {
		t.Fatalf("got %d transitions, want 3", len(tr))
	}
	if tr[0].From != Unsched || tr[0].To != Pending {
		t.Fatalf("first transition %v", tr[0])
	}
	if tr[2].To != Done {
		t.Fatalf("last transition %v", tr[2])
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].At.Before(tr[i-1].At) {
			t.Fatal("transition timestamps not monotonic")
		}
	}
}

func TestTimingsSetOnTransitions(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	_ = r.SetState(Pending)
	_ = r.SetState(Launched)
	_ = r.SetState(Running)
	_ = r.SetState(Done)
	launch, start, end := r.Timings()
	if launch.IsZero() || start.IsZero() || end.IsZero() {
		t.Fatalf("timings unset: %v %v %v", launch, start, end)
	}
	if end.Before(launch) {
		t.Fatal("end before launch")
	}
}

func TestAttemptsCounter(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	if r.Attempts() != 0 {
		t.Fatal("fresh record has attempts")
	}
	if n := r.IncAttempts(); n != 1 {
		t.Fatalf("IncAttempts = %d", n)
	}
	r.SetMaxRetries(3)
	if r.MaxRetries() != 3 {
		t.Fatal("retry budget lost")
	}
}

func TestDepCounter(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	r.SetPendingDeps(2)
	if n := r.DepResolved(); n != 1 {
		t.Fatalf("after first resolve: %d", n)
	}
	if n := r.DepResolved(); n != 0 {
		t.Fatalf("after second resolve: %d", n)
	}
	// Underflow guard.
	if n := r.DepResolved(); n != 0 {
		t.Fatalf("underflow: %d", n)
	}
}

func TestAccessors(t *testing.T) {
	r := NewRecord(5, "app", nil, nil)
	r.SetExecutor("htex")
	if r.Executor() != "htex" {
		t.Fatal("executor lost")
	}
	r.SetMemoKey("k")
	if r.MemoKey() != "k" {
		t.Fatal("memo key lost")
	}
	if !strings.Contains(r.String(), "app") {
		t.Fatalf("String() = %q", r.String())
	}
}

func TestStateStringAndTerminal(t *testing.T) {
	if Done.String() != "done" || Pending.String() != "pending" {
		t.Fatal("state names wrong")
	}
	if State(99).String() != "State(99)" {
		t.Fatal("unknown state name")
	}
	for _, s := range []State{Done, Failed, Memoized} {
		if !s.Terminal() {
			t.Errorf("%v not terminal", s)
		}
	}
	for _, s := range []State{Unsched, Pending, Launched, Running, Retrying, DataStaging} {
		if s.Terminal() {
			t.Errorf("%v terminal", s)
		}
	}
}

func TestConcurrentStateAndCounters(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	r.SetPendingDeps(100)
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); r.DepResolved() }()
	}
	wg.Wait()
	if r.PendingDeps() != 0 {
		t.Fatalf("pending deps = %d", r.PendingDeps())
	}
}

// Property: any random walk through SetState never lands in a state that the
// machine forbids, and once terminal the state never changes.
func TestQuickStateMachineSafety(t *testing.T) {
	prop := func(steps []uint8) bool {
		r := NewRecord(1, "a", nil, nil)
		for _, b := range steps {
			target := State(b % 9)
			prev := r.State()
			err := r.SetState(target)
			if prev.Terminal() && err == nil && target != prev {
				return false // escaped a terminal state
			}
			if err == nil && target != prev {
				// must be in validNext
				ok := false
				for _, n := range validNext[prev] {
					if n == target {
						ok = true
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAdvanceConcludesOnce: Advance reports the state it left and, unlike
// SetState, refuses to re-enter the terminal state a task already holds, so
// of two callers racing to fail a task exactly one wins.
func TestAdvanceConcludesOnce(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	if from, err := r.Advance(Pending); err != nil || from != Unsched {
		t.Fatalf("Advance(Pending) = %v, %v", from, err)
	}
	if from, err := r.Advance(Pending); err != nil || from != Pending {
		t.Fatalf("same-state Advance(Pending) = %v, %v; want a silent no-op", from, err)
	}
	if got := len(r.Transitions()); got != 1 {
		t.Fatalf("same-state Advance recorded a transition: %d", got)
	}
	if from, err := r.Advance(Failed); err != nil || from != Pending {
		t.Fatalf("Advance(Failed) = %v, %v", from, err)
	}
	if _, err := r.Advance(Failed); err == nil {
		t.Fatal("second Advance(Failed) won a terminal state the task already holds")
	}
	if err := r.SetState(Failed); err != nil {
		t.Fatalf("SetState keeps its idempotent same-state contract: %v", err)
	}
}
