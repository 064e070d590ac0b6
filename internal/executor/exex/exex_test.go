package exex

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/future"
	"repro/internal/mq"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

func testRegistry(t *testing.T) *serialize.Registry {
	t.Helper()
	reg := serialize.NewRegistry()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(reg.Register("echo", func(args []any, _ map[string]any) (any, error) { return args[0], nil }))
	must(reg.Register("sleep", func(args []any, _ map[string]any) (any, error) {
		time.Sleep(time.Duration(args[0].(int)) * time.Millisecond)
		return "slept", nil
	}))
	must(reg.Register("fail", func([]any, map[string]any) (any, error) { return nil, errors.New("boom") }))
	return reg
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout: %s", what)
}

// newEXEX builds an executor with `pools` MPI pools of `ranks` ranks each.
func newEXEX(t *testing.T, pools, ranks int, tune func(*Config)) *Executor {
	t.Helper()
	cfg := Config{
		Label:       "exex-test",
		Transport:   simnet.NewNetwork(0),
		Registry:    testRegistry(t),
		Provider:    provider.NewLocal(provider.Config{NodesPerBlock: pools}),
		InitBlocks:  1,
		Pool:        PoolConfig{Ranks: ranks, HeartbeatPeriod: 50 * time.Millisecond},
		Interchange: htexInterchangeCfg(),
	}
	if tune != nil {
		tune(&cfg)
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown() })
	waitCond(t, "pools registered", func() bool { return e.Interchange().ManagerCount() == pools })
	return e
}

func TestRoundTripThroughMPIPool(t *testing.T) {
	e := newEXEX(t, 1, 3, nil)
	v, err := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{"extreme"}}).Result()
	if err != nil || v != "extreme" {
		t.Fatalf("result = %v, %v", v, err)
	}
}

func TestHierarchicalDistribution(t *testing.T) {
	e := newEXEX(t, 2, 5, nil) // 2 pools × 4 worker ranks
	const n = 100
	futs := make([]*future.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}})
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil || v != i {
			t.Fatalf("task %d: %v %v", i, v, err)
		}
	}
}

func TestWorkerRanksRunInParallel(t *testing.T) {
	e := newEXEX(t, 1, 5, nil) // 4 worker ranks
	start := time.Now()
	var futs []*future.Future
	for i := 0; i < 8; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "sleep", Args: []any{50}}))
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
	// 8×50 ms over 4 ranks ≈ 100 ms; sequential would be 400 ms.
	if elapsed := time.Since(start); elapsed > 350*time.Millisecond {
		t.Fatalf("ranks not parallel: %v", elapsed)
	}
}

func TestAppErrorThroughPool(t *testing.T) {
	e := newEXEX(t, 1, 2, nil)
	_, err := e.Submit(serialize.TaskMsg{ID: 1, App: "fail"}).Result()
	var re *executor.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
}

func TestRankFailureKillsWholePool(t *testing.T) {
	// §4.3.2: "job and node failures can result in the loss of the entire
	// MPI application". Killing one rank must fail in-flight tasks of the
	// whole pool: the aborted communicator stops the rank-0 agent, and the
	// interchange reports its tasks lost on the disconnect.
	tr := simnet.NewNetwork(0)
	reg := testRegistry(t)
	cfg := Config{
		Label:       "exex-fault",
		Transport:   tr,
		Registry:    reg,
		Provider:    provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		Pool:        PoolConfig{Ranks: 3, HeartbeatPeriod: 30 * time.Millisecond},
		Interchange: htexInterchangeCfg(),
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()

	pool, err := StartPool(tr, e.Interchange().Addr(), "pool-victim", reg, cfg.Pool)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "pool registered", func() bool { return e.Interchange().ManagerCount() == 1 })

	fut := e.Submit(serialize.TaskMsg{ID: 5, App: "sleep", Args: []any{10000}})
	waitCond(t, "task in flight on pool", func() bool {
		return e.Interchange().OutstandingByManager()["pool-victim"] == 1
	})

	pool.FailRank(2) // one rank dies -> whole communicator aborts

	_, err = fut.Result()
	var lost *executor.LostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want LostError", err)
	}
	if !pool.Comm().Aborted() {
		t.Fatal("communicator survived rank failure")
	}
	waitCond(t, "pool deregistered", func() bool { return e.Interchange().ManagerCount() == 0 })
}

func TestSmallPoolsIsolateFailures(t *testing.T) {
	// The recommended mitigation: two pools; killing one leaves the other
	// able to finish work.
	tr := simnet.NewNetwork(0)
	reg := testRegistry(t)
	cfg := Config{
		Label: "exex-isolate", Transport: tr, Registry: reg,
		Provider:    provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		Pool:        PoolConfig{Ranks: 2, HeartbeatPeriod: 30 * time.Millisecond},
		Interchange: htexInterchangeCfg(),
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	dead, err := StartPool(tr, e.Interchange().Addr(), "pool-a", reg, cfg.Pool)
	if err != nil {
		t.Fatal(err)
	}
	alive, err := StartPool(tr, e.Interchange().Addr(), "pool-b", reg, cfg.Pool)
	if err != nil {
		t.Fatal(err)
	}
	defer alive.Stop()
	waitCond(t, "both pools", func() bool { return e.Interchange().ManagerCount() == 2 })

	dead.FailRank(1)
	waitCond(t, "one pool left", func() bool { return e.Interchange().ManagerCount() == 1 })

	v, err := e.Submit(serialize.TaskMsg{ID: 9, App: "echo", Args: []any{"survived"}}).Result()
	if err != nil || v != "survived" {
		t.Fatalf("surviving pool: %v, %v", v, err)
	}
	if alive.Executed() == 0 {
		t.Fatal("surviving pool executed nothing")
	}
}

func TestPoolExecutedCounter(t *testing.T) {
	e := newEXEX(t, 1, 3, nil)
	var futs []*future.Future
	for i := 0; i < 10; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}}))
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
}

func TestScaleOutAddsPools(t *testing.T) {
	e := newEXEX(t, 1, 2, nil)
	if err := e.ScaleOut(2); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "3 pools", func() bool { return e.Interchange().ManagerCount() == 3 })
	if err := e.ScaleIn(2); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "1 pool", func() bool { return e.Interchange().ManagerCount() == 1 })
}

func htexInterchangeCfg() htex.InterchangeConfig {
	return htex.InterchangeConfig{
		Seed:               1,
		HeartbeatPeriod:    30 * time.Millisecond,
		HeartbeatThreshold: 150 * time.Millisecond,
	}
}

// TestStreamCorruptionRecovery corrupts both of the pool's manager-protocol
// legs — the interchange's TASKS frames in, the pool's RESULTS frames out —
// and asserts the per-leg repair (NACK and requeue) recovers exactly as it
// does for htex managers: every task completes, nothing wedges.
func TestStreamCorruptionRecovery(t *testing.T) {
	inj := chaos.New(29, chaos.Plan{
		{Point: chaos.PointIxTasks, Act: chaos.ActCorrupt, Prob: 0.3},
		{Point: chaos.PointMgrResults, Act: chaos.ActCorrupt, Prob: 0.3},
	})
	restore := chaos.Enable(inj)
	defer restore()

	e := newEXEX(t, 1, 3, nil)
	const n = 40
	futs := make([]*future.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}})
	}
	deadline := time.Now().Add(30 * time.Second)
	for i, f := range futs {
		rem := time.Until(deadline)
		if rem <= 0 {
			rem = time.Millisecond
		}
		v, err := f.ResultTimeout(rem)
		if err != nil {
			t.Fatalf("task %d stuck after stream corruption: %v", i, err)
		}
		if v != i {
			t.Fatalf("task %d = %v", i, v)
		}
	}
	if inj.Fires(chaos.PointIxTasks)+inj.Fires(chaos.PointMgrResults) == 0 {
		t.Fatal("no corruption fired")
	}
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
}

// startBare starts an executor with no provider pools; the tests attach pools
// with StartPool so they hold each Pool handle.
func startBare(t *testing.T, label string, reg *serialize.Registry, pool PoolConfig) (*Executor, simnet.Transport) {
	t.Helper()
	tr := simnet.NewNetwork(0)
	e := New(Config{
		Label: label, Transport: tr, Registry: reg,
		Provider:    provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		Pool:        pool,
		Interchange: htexInterchangeCfg(),
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown() })
	return e, tr
}

// TestPoolDrainRequeuesInFlight: a pool drained with a task on one of its
// ranks hands the task back — the interchange processes the BYE before the
// disconnect and requeues it onto another pool, so the client never sees a
// LostError.
func TestPoolDrainRequeuesInFlight(t *testing.T) {
	reg := testRegistry(t)
	poolCfg := PoolConfig{Ranks: 2, HeartbeatPeriod: 30 * time.Millisecond}
	e, tr := startBare(t, "exex-drain", reg, poolCfg)
	first, err := StartPool(tr, e.Interchange().Addr(), "pool-first", reg, poolCfg)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "first pool registered", func() bool { return e.Interchange().ManagerCount() == 1 })
	fut := e.Submit(serialize.TaskMsg{ID: 1, App: "sleep", Args: []any{100}})
	waitCond(t, "task in flight on the first pool", func() bool {
		return e.Interchange().OutstandingByManager()["pool-first"] == 1
	})
	second, err := StartPool(tr, e.Interchange().Addr(), "pool-second", reg, poolCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Stop()
	waitCond(t, "second pool registered", func() bool { return e.Interchange().ManagerCount() == 2 })

	first.Drain()
	// Drain returns only once the interchange has processed the BYE and hung
	// up, so the pool's departure is already settled here.
	if n := e.Interchange().ManagerCount(); n != 1 {
		t.Fatalf("%d pools registered right after Drain, want 1", n)
	}
	v, err := fut.ResultTimeout(5 * time.Second)
	if err != nil || v != "slept" {
		t.Fatalf("drained task: %v, %v (want requeue, not loss)", v, err)
	}
	if second.Executed() != 1 {
		t.Fatalf("second pool executed %d, want the requeued task", second.Executed())
	}
	if !first.Comm().Aborted() {
		t.Fatal("drained pool's MPI job still running")
	}
}

// TestPoolExitsWhenInterchangeSilent: a pool whose interchange stops
// answering heartbeats (connection up, peer mute) shuts down, MPI job and
// all, instead of holding its ranks forever.
func TestPoolExitsWhenInterchangeSilent(t *testing.T) {
	tr := simnet.NewNetwork(0)
	mute, err := mq.NewRouter(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	pool, err := StartPool(tr, mute.Addr(), "pool-orphan", testRegistry(t),
		PoolConfig{Ranks: 3, HeartbeatPeriod: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()
	waitCond(t, "pool exits", pool.Comm().Aborted)
}

// TestCanceledQueuedTaskNeverReachesRank: a task canceled while it waits in
// the pool's prefetch buffer is dropped by rank 0 and never sent to an MPI
// rank.
func TestCanceledQueuedTaskNeverReachesRank(t *testing.T) {
	reg := testRegistry(t)
	var marked atomic.Int32
	if err := reg.Register("mark", func([]any, map[string]any) (any, error) {
		marked.Add(1)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	poolCfg := PoolConfig{Ranks: 2, Prefetch: 1, HeartbeatPeriod: 30 * time.Millisecond}
	e, tr := startBare(t, "exex-cancel", reg, poolCfg)
	pool, err := StartPool(tr, e.Interchange().Addr(), "pool-cancel", reg, poolCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()
	waitCond(t, "pool registered", func() bool { return e.Interchange().ManagerCount() == 1 })

	// One worker rank: the sleep occupies it while the mark task waits in
	// the prefetch slot.
	busy := e.Submit(serialize.TaskMsg{ID: 1, App: "sleep", Args: []any{150}})
	queued := e.Submit(serialize.TaskMsg{ID: 2, App: "mark"})
	waitCond(t, "both tasks on the pool", func() bool {
		return e.Interchange().OutstandingByManager()["pool-cancel"] == 2
	})
	if !e.Cancel(2) {
		t.Fatal("cancel reported the task already settled")
	}
	if _, err := busy.ResultTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The single rank serves the buffer in order, so once a later task has
	// run, the canceled one has been dequeued and dropped.
	if _, err := e.Submit(serialize.TaskMsg{ID: 3, App: "echo", Args: []any{3}}).ResultTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := marked.Load(); n != 0 {
		t.Fatalf("canceled task ran %d times on a rank", n)
	}
	if got := pool.Executed(); got != 2 {
		t.Fatalf("pool executed %d tasks, want 2 (the canceled one skipped)", got)
	}
	if !queued.Done() {
		t.Fatal("canceled future not settled")
	}
}
