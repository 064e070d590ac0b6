package htex

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/future"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// The stream-corruption suite injects corrupt/truncated frames into each
// wire leg and asserts the per-leg repair (codec.go) recovers: no deadlock,
// no task stuck in flight, every future settles. Corruption probabilities
// are high (every repair is itself subject to further corruption), so these
// tests exercise repeated repairs.

// waitAllOrFatal fails the test if any future is unsettled after timeout —
// the "no deadlock" assertion.
func waitAllOrFatal(t *testing.T, timeout time.Duration, futs []*future.Future) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for i, f := range futs {
		rem := time.Until(deadline)
		if rem <= 0 {
			rem = time.Millisecond
		}
		if _, err := f.ResultTimeout(rem); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("task %d stuck %v after corruption — stream never recovered", i, timeout)
			}
			t.Fatalf("task %d: %v", i, err)
		}
	}
}

// corruptionHarness runs n echo tasks under plan and asserts full recovery:
// all results correct, broker fully drained.
func corruptionHarness(t *testing.T, plan chaos.Plan, n int, tune func(*Config)) *Injector {
	t.Helper()
	inj := chaos.New(11, plan)
	restore := chaos.Enable(inj)
	defer restore()

	e := newHTEX(t, 2, 2, tune)
	futs := make([]*future.Future, n)
	for i := 0; i < n; i++ {
		// One frame per Submit: many frames means many corruption rolls.
		futs[i] = e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}})
	}
	waitAllOrFatal(t, 30*time.Second, futs)
	for i, f := range futs {
		if v, _ := f.Result(); v != i {
			t.Fatalf("task %d = %v, want %d", i, v, i)
		}
	}
	// No task stuck in flight anywhere in the broker.
	waitCond(t, "interchange drained", func() bool {
		if e.Interchange().QueueDepth() != 0 {
			return false
		}
		for _, held := range e.Interchange().OutstandingByManager() {
			if held != 0 {
				return false
			}
		}
		return true
	})
	if e.Outstanding() != 0 {
		t.Fatalf("client outstanding = %d", e.Outstanding())
	}
	return inj
}

// Injector is re-exported for the harness return (keeps call sites short).
type Injector = chaos.Injector

func TestStreamCorruptionClientLeg(t *testing.T) {
	inj := corruptionHarness(t, chaos.Plan{
		{Point: chaos.PointClientSend, Act: chaos.ActCorrupt, Prob: 0.4},
		{Point: chaos.PointClientSend, Act: chaos.ActTruncate, Prob: 0.1},
	}, 60, nil)
	if inj.Fires(chaos.PointClientSend) == 0 {
		t.Fatal("no corruption fired — test exercised nothing")
	}
}

func TestStreamCorruptionInterchangeTasksLeg(t *testing.T) {
	inj := corruptionHarness(t, chaos.Plan{
		{Point: chaos.PointIxTasks, Act: chaos.ActCorrupt, Prob: 0.3},
		{Point: chaos.PointIxTasks, Act: chaos.ActTruncate, Prob: 0.1},
	}, 60, nil)
	if inj.Fires(chaos.PointIxTasks) == 0 {
		t.Fatal("no corruption fired")
	}
}

func TestStreamCorruptionManagerResultsLeg(t *testing.T) {
	inj := corruptionHarness(t, chaos.Plan{
		{Point: chaos.PointMgrResults, Act: chaos.ActCorrupt, Prob: 0.3},
	}, 60, nil)
	if inj.Fires(chaos.PointMgrResults) == 0 {
		t.Fatal("no corruption fired")
	}
}

// TestStreamCorruptionResultsRelayResyncs corrupts the interchange → client
// RESULTS relay once, then keeps submitting: the bad frame must cost only
// itself, so every subsequent result flows. Results inside the one lost
// frame are unrecoverable at this layer by design (nothing retains delivered
// results); TestStreamCorruptionResultsRelayTimeoutRecovery covers their
// task-level recovery through the DFK.
func TestStreamCorruptionResultsRelayResyncs(t *testing.T) {
	inj := chaos.New(13, chaos.Plan{
		{Point: chaos.PointIxResults, Act: chaos.ActCorrupt, Prob: 1.0, Max: 1},
	})
	restore := chaos.Enable(inj)
	defer restore()

	e := newHTEX(t, 1, 2, nil)
	first := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{"lost"}})
	// The first result frame is corrupted and the client drops it. The
	// task's result is gone — it must NOT settle.
	waitCond(t, "corruption fired", func() bool { return inj.Fires(chaos.PointIxResults) == 1 })

	// Frames are independent, so the very next result should flow. Probe
	// serially until one settles (tolerating a lost probe keeps the test
	// honest about what it asserts: recovery, not its latency); after that
	// everything must flow.
	lostProbes := 0
	recovered := false
	for i := 0; i < 20 && !recovered; i++ {
		p := e.Submit(serialize.TaskMsg{ID: int64(100 + i), App: "echo", Args: []any{i}})
		if _, err := p.ResultTimeout(2 * time.Second); err == nil {
			recovered = true
		} else {
			lostProbes++
		}
	}
	if !recovered {
		t.Fatal("relay stream never resynced after corruption")
	}
	futs := make([]*future.Future, 20)
	for i := range futs {
		futs[i] = e.Submit(serialize.TaskMsg{ID: int64(200 + i), App: "echo", Args: []any{i}})
	}
	waitAllOrFatal(t, 10*time.Second, futs)
	if first.Done() {
		t.Fatal("task whose result frame was corrupted settled at the htex layer — no layer should have retained it")
	}
	// Outstanding = the original lost task plus any lost probes; nothing
	// after recovery may be stuck.
	if got := e.Outstanding(); got != 1+lostProbes {
		t.Fatalf("client outstanding = %d, want %d (1 lost task + %d lost probes)", got, 1+lostProbes, lostProbes)
	}
}

// TestStreamCorruptionResultsRelayTimeoutRecovery is the end-to-end arm: a
// corrupted RESULTS relay frame loses a result, and the DFK's attempt
// timeout + retry re-executes the task to completion — the documented
// recovery path for the one leg where NACK cannot repair task state.
func TestStreamCorruptionResultsRelayTimeoutRecovery(t *testing.T) {
	inj := chaos.New(17, chaos.Plan{
		{Point: chaos.PointIxResults, Act: chaos.ActCorrupt, Prob: 1.0, Max: 1},
	})
	restore := chaos.Enable(inj)
	defer restore()

	reg := serialize.NewRegistry()
	hx := New(Config{
		Label:      "htex",
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		InitBlocks: 1,
		Manager:    ManagerConfig{Workers: 2, Prefetch: 2},
		Interchange: InterchangeConfig{
			Seed: 1, HeartbeatPeriod: 50 * time.Millisecond, HeartbeatThreshold: 10 * time.Second,
		},
	})
	d, err := dfk.New(dfk.Config{
		Registry:    reg,
		Executors:   []executor.Executor{hx},
		Retries:     3,
		TaskTimeout: 400 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	app, err := d.PythonApp("echo2", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*future.Future, 8)
	for i := range futs {
		futs[i] = app.Submit(context.Background(), []any{i})
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil {
			t.Fatalf("task %d not recovered: %v", i, err)
		}
		if v != i {
			t.Fatalf("task %d = %v", i, v)
		}
	}
	if inj.Fires(chaos.PointIxResults) != 1 {
		t.Fatalf("corruption fired %d times, want 1", inj.Fires(chaos.PointIxResults))
	}
}

// TestChaosDelayPreservesStreamOrder: delays on a wire leg stall frames, and
// heavy delay probability alone must not lose or wedge any task.
func TestChaosDelayPreservesStreamOrder(t *testing.T) {
	inj := chaos.New(19, chaos.Plan{
		{Point: chaos.PointIxTasks, Act: chaos.ActDelay, Prob: 0.5, Delay: 2 * time.Millisecond},
		{Point: chaos.PointMgrResults, Act: chaos.ActDelay, Prob: 0.5, Delay: 2 * time.Millisecond},
	})
	restore := chaos.Enable(inj)
	defer restore()

	e := newHTEX(t, 2, 2, nil)
	futs := make([]*future.Future, 40)
	for i := range futs {
		futs[i] = e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{fmt.Sprint(i)}})
	}
	waitAllOrFatal(t, 20*time.Second, futs)
}
