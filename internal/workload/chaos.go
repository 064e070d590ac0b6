package workload

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/memo"
	"repro/internal/monitor"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// ChaosConfig shapes one chaos-plane run: a reference multi-executor
// workload (threadpool + HTEX over the in-memory network) driven under a
// seeded fault schedule, with system invariants asserted afterwards. The
// same seed always arms the same fault schedule (see internal/chaos), so a
// failing run is reproduced by re-running its seed.
type ChaosConfig struct {
	// Seed fixes the fault schedule, the DFK's executor selection, and the
	// interchange's manager selection.
	Seed int64
	// Tasks is the number of distinct tasks submitted (default 240).
	Tasks int
	// DupSubmissions resubmits the first n task arguments a second time,
	// exercising memoization consistency under chaos (default Tasks/8).
	DupSubmissions int
	// Workers sizes the threadpool executor (default 4).
	Workers int
	// Managers is the HTEX manager count (default 3); MgrWorkers the worker
	// goroutines per manager (default 2).
	Managers, MgrWorkers int
	// Retries is the per-task retry budget (default 8 — chaos runs need
	// headroom: every dropped frame or killed manager consumes an attempt).
	Retries int
	// TaskTimeout bounds one attempt; it is the recovery backstop for
	// silently lost work (dropped frames, results lost to corruption), so
	// chaos runs must set it (default 700ms).
	TaskTimeout time.Duration
	// Checkpoint, when non-empty, enables memo checkpointing to this file
	// and arms the post-run checkpoint-consistency invariant.
	Checkpoint string
	// Plan is the fault plan (nil = DefaultChaosPlan()). An empty non-nil
	// plan runs the workload with chaos armed but inert.
	Plan chaos.Plan
	// Watchdog bounds the whole run; a task not terminal by then is reported
	// as the "task stuck" invariant violation (default 90s).
	Watchdog time.Duration
}

func (c *ChaosConfig) normalize() {
	if c.Tasks <= 0 {
		c.Tasks = 240
	}
	if c.DupSubmissions < 0 {
		c.DupSubmissions = 0
	} else if c.DupSubmissions == 0 {
		c.DupSubmissions = c.Tasks / 8
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Managers <= 0 {
		c.Managers = 3
	}
	if c.MgrWorkers <= 0 {
		c.MgrWorkers = 2
	}
	if c.Retries <= 0 {
		c.Retries = 8
	}
	if c.TaskTimeout <= 0 {
		c.TaskTimeout = 700 * time.Millisecond
	}
	if c.Watchdog <= 0 {
		c.Watchdog = 90 * time.Second
	}
	if c.Plan == nil {
		c.Plan = DefaultChaosPlan()
	}
}

// DefaultChaosPlan arms every fault point with modest probabilities: enough
// that a run exercises drop, duplication, corruption, NACK repair, manager
// death, injected panics, and dispatch failures, while a Retries-deep budget
// still drives every task to completion.
func DefaultChaosPlan() chaos.Plan {
	return chaos.Plan{
		// Client → interchange task stream.
		{Point: chaos.PointClientSend, Act: chaos.ActDrop, Prob: 0.02},
		{Point: chaos.PointClientSend, Act: chaos.ActDup, Prob: 0.03},
		{Point: chaos.PointClientSend, Act: chaos.ActCorrupt, Prob: 0.03},
		{Point: chaos.PointClientSend, Act: chaos.ActDelay, Prob: 0.05, Delay: time.Millisecond},
		// Interchange → manager task stream.
		{Point: chaos.PointIxTasks, Act: chaos.ActCorrupt, Prob: 0.02},
		{Point: chaos.PointIxTasks, Act: chaos.ActTruncate, Prob: 0.01},
		{Point: chaos.PointIxTasks, Act: chaos.ActDelay, Prob: 0.04, Delay: time.Millisecond},
		// Manager → interchange result stream.
		{Point: chaos.PointMgrResults, Act: chaos.ActCorrupt, Prob: 0.02},
		{Point: chaos.PointMgrResults, Act: chaos.ActDup, Prob: 0.02},
		// Interchange → client result relay. Corruption here is the most
		// expensive fault (recovery waits out the attempt timeout), so it is
		// rare; duplication is cheap and dedups at the client.
		{Point: chaos.PointIxResults, Act: chaos.ActCorrupt, Prob: 0.01},
		{Point: chaos.PointIxResults, Act: chaos.ActDup, Prob: 0.02},
		// Abrupt manager death, at most one per run so a three-manager pool
		// always retains capacity.
		{Point: chaos.PointMgrKill, Act: chaos.ActKill, Prob: 0.004, Max: 1},
		// Execution kernel: real panics through the recovery sandbox, stalls
		// on both executor classes.
		{Point: chaos.PointExecRun, Act: chaos.ActPanic, Prob: 0.01},
		{Point: chaos.PointExecRun, Act: chaos.ActStall, Prob: 0.02, Delay: 2 * time.Millisecond},
		// DFK dispatch pipeline.
		{Point: chaos.PointSubmitFail, Act: chaos.ActFail, Prob: 0.02},
		{Point: chaos.PointLaneDelay, Act: chaos.ActDelay, Prob: 0.05, Delay: 500 * time.Microsecond},
	}
}

// ChaosResult reports one run: outcome tallies, the fired-fault log, and any
// invariant violations (empty = the run upheld every recovery guarantee).
type ChaosResult struct {
	Submitted  int
	Done       int
	Memoized   int
	Failed     int
	Executions int64 // app-body executions; > Done means retries/duplicates ran (legal)
	Retried    int   // tasks that took more than one attempt
	MaxAttempt int   // largest per-task attempt count observed
	Events     []chaos.Event
	Violations []string
	Elapsed    time.Duration
}

// chaosValue is the reference app's deterministic function of the task
// index, so every invariant can recompute the expected value.
func chaosValue(i int) int { return i*3 + 7 }

// RunChaos executes the reference workload under cfg's fault schedule and
// checks the recovery invariants: every task terminal (none lost, none
// stuck), every success carries the right value exactly once, retry counts
// within budget, the broker fully drained, and — when checkpointing — the
// checkpoint file consistent with delivered results.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg.normalize()
	inj := chaos.New(cfg.Seed, cfg.Plan)

	reg := serialize.NewRegistry()
	execs := make([]atomic.Int64, cfg.Tasks)
	chaosFn := func(args []any, _ map[string]any) (any, error) {
		i := args[0].(int)
		execs[i].Add(1)
		time.Sleep(500 * time.Microsecond)
		return chaosValue(i), nil
	}

	pool := threadpool.NewWithDepth("pool", cfg.Workers, 64, reg)
	hx := htex.New(htex.Config{
		Label:      "htex",
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: cfg.Managers}),
		InitBlocks: 1,
		Manager:    htex.ManagerConfig{Workers: cfg.MgrWorkers, Prefetch: cfg.MgrWorkers},
		Interchange: htex.InterchangeConfig{
			Seed:               cfg.Seed,
			HeartbeatPeriod:    50 * time.Millisecond,
			HeartbeatThreshold: 300 * time.Millisecond,
		},
	})
	// Chaos runs with record pooling ON (the default): terminal records are
	// pruned and recycled while faults fire, so the run doubles as the
	// use-after-recycle stress (generation-guard panics would fail the run).
	// Per-task invariants therefore read the monitoring stream, not records.
	store := monitor.NewStore()
	d, err := dfk.New(dfk.Config{
		Registry:    reg,
		Executors:   []executor.Executor{pool, hx},
		Retries:     cfg.Retries,
		Memoize:     true,
		Checkpoint:  cfg.Checkpoint,
		TaskTimeout: cfg.TaskTimeout,
		Seed:        cfg.Seed,
		Monitor:     store,
	})
	if err != nil {
		return ChaosResult{}, err
	}
	appF, err := d.PythonApp("chaos-f", chaosFn)
	if err != nil {
		_ = d.Shutdown()
		return ChaosResult{}, err
	}

	// Arm the fault plane only around the workload itself, so DFK/executor
	// startup is never faulted (the paper's fault model is runtime failure,
	// not failed deployment).
	restore := chaos.Enable(inj)
	start := time.Now()

	ctx := context.Background()
	submit := func(i int) *future.Future {
		// A third pinned to each executor, a third routed by the scheduler:
		// chaos has to hold invariants on every dispatch shape.
		switch i % 3 {
		case 0:
			return appF.Submit(ctx, []any{i}, dfk.WithExecutor("pool"))
		case 1:
			return appF.Submit(ctx, []any{i}, dfk.WithExecutor("htex"))
		default:
			return appF.Submit(ctx, []any{i})
		}
	}
	// The watchdog covers every wait in the run, including the memoization
	// warm-up below — a wedged early task must surface as a "stuck"
	// violation with the event log attached, never as a silent hang. A
	// closed channel (not time.After's one-shot value) so expiry stays
	// observable across every later wait.
	expired := make(chan struct{})
	watchdog := time.AfterFunc(cfg.Watchdog, func() { close(expired) })
	defer watchdog.Stop()
	settled := func(fs []*future.Future) bool {
		for _, f := range fs {
			select {
			case <-f.DoneChan():
			case <-expired:
				return false
			}
		}
		return true
	}

	futs := make([]*future.Future, 0, cfg.Tasks+cfg.DupSubmissions)
	idx := make([]int, 0, cap(futs))
	for i := 0; i < cfg.Tasks; i++ {
		futs = append(futs, submit(i))
		idx = append(idx, i)
	}

	res := ChaosResult{Submitted: cfg.Tasks}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	// Duplicate submissions exercise memoization under chaos from both
	// sides: the first half waits for its originals (guaranteed memo hits —
	// unless chaos failed the original), the second half races them
	// (legal double execution, reconciled by value).
	stuck := !settled(futs[:cfg.DupSubmissions/2])
	if !stuck {
		for i := 0; i < cfg.DupSubmissions; i++ {
			futs = append(futs, submit(i))
			idx = append(idx, i)
		}
		res.Submitted = len(futs)
		// Invariant: the graph drains within the watchdog — no task lost or
		// stuck.
		stuck = !settled(futs)
	}
	if stuck {
		n := 0
		for _, f := range futs {
			if !f.Done() {
				n++
			}
		}
		violate("watchdog %v expired with %d/%d tasks unsettled", cfg.Watchdog, n, len(futs))
	}
	restore()
	res.Events = inj.Events()

	if stuck {
		// A graceful Shutdown would block on the stuck tasks, but leaving
		// the wedged DFK running would leak its traffic into the process-
		// global fault points — polluting the next seed's schedule in a
		// multi-seed run. Best effort: shutting the executors fails all
		// pending work fast, which drains the DFK's retry machinery; bound
		// the wait in case even that wedges. The violation above already
		// fails the run either way.
		_ = pool.Shutdown()
		_ = hx.Shutdown()
		sd := make(chan struct{})
		go func() {
			_ = d.Shutdown()
			close(sd)
		}()
		select {
		case <-sd:
		case <-time.After(15 * time.Second):
			violate("teardown of the wedged run did not complete; later seeds in this process may see foreign fault-point traffic")
		}
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// Invariant: every success carries exactly the expected value.
	for k, f := range futs {
		v, ferr := f.Result()
		if ferr != nil {
			res.Failed++
			violate("task arg %d lost: retry budget exhausted: %v", idx[k], ferr)
			continue
		}
		if got, ok := v.(int); !ok || got != chaosValue(idx[k]) {
			violate("task arg %d: value %v, want %d", idx[k], v, chaosValue(idx[k]))
		}
	}

	// Broker invariants before teardown: the interchange queue and every
	// manager's outstanding set drain to zero — no in-flight leak survived
	// the faults. Ghost attempts (timed out at the DFK, retried elsewhere,
	// but still crossing the htex wire) may lag the futures briefly, so this
	// is an eventually-drains check, not an instantaneous sample.
	drained := func() bool {
		if hx.Interchange().QueueDepth() != 0 {
			return false
		}
		for _, n := range hx.Interchange().OutstandingByManager() {
			if n != 0 {
				return false
			}
		}
		// hx.Outstanding covers the client's pending map: a wire-lost ghost
		// attempt (dropped frame + timeout retry) must not leak there.
		return pool.Outstanding() == 0 && hx.Outstanding() == 0
	}
	quiesce := time.Now().Add(15 * time.Second)
	for !drained() && time.Now().Before(quiesce) {
		time.Sleep(2 * time.Millisecond)
	}
	if qd := hx.Interchange().QueueDepth(); qd != 0 {
		violate("interchange queue holds %d tasks after drain", qd)
	}
	for mgr, n := range hx.Interchange().OutstandingByManager() {
		if n != 0 {
			violate("manager %s still holds %d tasks after drain", mgr, n)
		}
	}
	if n := pool.Outstanding(); n != 0 {
		violate("threadpool still holds %d tasks after drain", n)
	}
	if n := hx.Outstanding(); n != 0 {
		violate("htex client still tracks %d tasks after drain — ghost attempts leaked", n)
	}

	// Task-level invariants, reconstructed from the monitoring stream —
	// terminal records have been pruned and recycled, so the records
	// themselves are gone by design: exactly one terminal transition per
	// task (a result is never delivered twice), launches within the retry
	// budget.
	launches := make(map[int64]int)
	terminals := make(map[int64]int)
	finals := make(map[int64]string)
	for _, e := range store.Events(monitor.KindTaskState) {
		switch e.To {
		case "launched":
			launches[e.TaskID]++
		case "done", "failed", "memoized":
			terminals[e.TaskID]++
		}
		finals[e.TaskID] = e.To
	}
	for id, st := range finals {
		if n := terminals[id]; n != 1 {
			violate("task %d reached a terminal state %d times (final %q)", id, n, st)
		}
	}
	for id, n := range launches {
		// Each launch is one attempt: at most Retries retries plus the
		// first attempt.
		if n > cfg.Retries+1 {
			violate("task %d launched %d times, budget %d+1", id, n, cfg.Retries)
		}
		if n > 1 {
			res.Retried++
			if n > res.MaxAttempt {
				res.MaxAttempt = n
			}
		}
	}
	sum := d.Summary()
	res.Done = sum["done"]
	res.Memoized = sum["memoized"]
	if d.Outstanding() != 0 {
		violate("graph outstanding = %d after drain", d.Outstanding())
	}

	// Reclamation invariants: with pooling on, the drained graph is empty —
	// steady-state residency is the live frontier, so once every future has
	// settled (WaitAll orders us after the final retire) every record must
	// have been pruned and recycled, and the monitor must have seen pruning.
	d.WaitAll()
	if n := d.Graph().LiveNodes(); n != 0 {
		violate("graph holds %d live records after drain (reclamation leak)", n)
	}
	if n := d.Graph().RecycledNodes(); n != int64(res.Submitted) {
		violate("recycled %d records, want %d (one per submission)", n, res.Submitted)
	}
	if len(store.Events(monitor.KindGraph)) == 0 {
		violate("no graph-reclamation event emitted")
	}

	for i := range execs {
		if execs[i].Load() == 0 && res.Failed == 0 {
			violate("task arg %d completed without ever executing", i)
		}
	}
	res.Executions = totalExecs(execs)

	if err := d.Shutdown(); err != nil {
		violate("shutdown: %v", err)
	}

	// Checkpoint consistency: every distinct argument that completed must be
	// present in the persisted file under its recomputed memo key, with the
	// delivered value (JSON round-trips ints as float64, so compare
	// numerically). Keys are recomputed from scratch — app name, body hash,
	// re-encoded args — because the records that carried them are recycled.
	if cfg.Checkpoint != "" {
		m := memo.New()
		if err := m.LoadCheckpoint(cfg.Checkpoint); err != nil {
			violate("checkpoint reload: %v", err)
		} else {
			entry, _ := reg.Lookup("chaos-f")
			seen := make(map[int]bool)
			for k, f := range futs {
				i := idx[k]
				if seen[i] {
					continue
				}
				seen[i] = true
				v, ferr := f.Result()
				if ferr != nil {
					continue // lost to an exhausted retry budget; not checkpointed
				}
				p, perr := serialize.EncodeArgs([]any{i}, nil)
				if perr != nil {
					violate("re-encode args %d: %v", i, perr)
					continue
				}
				key := memo.KeyFromPayload("chaos-f", entry.BodyHash(), p)
				p.Release()
				got, ok := m.Lookup(key)
				if !ok {
					violate("completed task arg %d missing from checkpoint", i)
					continue
				}
				if toF64(got) != toF64(v) {
					violate("task arg %d checkpoint value %v != delivered %v", i, got, v)
				}
			}
		}
	}

	res.Elapsed = time.Since(start)
	return res, nil
}

func totalExecs(execs []atomic.Int64) int64 {
	var n int64
	for i := range execs {
		n += execs[i].Load()
	}
	return n
}

func toF64(v any) float64 {
	switch t := v.(type) {
	case int:
		return float64(t)
	case int64:
		return float64(t)
	case float64:
		return t
	default:
		return -1
	}
}
