package workload

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// This file holds the two arms of the sharded-control-plane scenario:
//
//   - RunShardFailover kills one interchange shard of a sharded HTEX pool
//     mid-workload (through the chaos plane, addressed by shard label) and
//     asserts the failover contract: exactly the tasks the client failed on
//     the dead shard's account are re-executed, the survivors keep draining
//     untouched, and every task still completes exactly once.
//   - RunShardScaling drives the same total manager capacity through S
//     shards and reports client-observed throughput, so CI can hold the
//     horizontal-scaling bar (N shards beat one broker once the single
//     router is the bottleneck).

// ShardFailoverConfig shapes one failover run.
type ShardFailoverConfig struct {
	// Seed fixes the chaos schedule, manager selection, and DFK jitter.
	Seed int64
	// Shards is the interchange shard count (default 4, min 2 — killing the
	// only shard is a different scenario).
	Shards int
	// Victim is the shard index the chaos plan kills. The zero value selects
	// shard 0; an index outside [0, Shards) falls back to shard 1.
	Victim int
	// Tasks is the workload size (default 160).
	Tasks int
	// Managers is the total manager count across all shards (default 8);
	// MgrWorkers the worker goroutines per manager (default 1).
	Managers, MgrWorkers int
	// TaskMillis is each task's simulated work (default 15ms — long enough
	// that the victim shard still holds work when the kill lands).
	TaskMillis int
	// Retries is the charged per-task retry budget (default 8; shard loss
	// classifies as executor-lost, which also has free-retry headroom).
	Retries int
	// TaskTimeout bounds one attempt (default 5s).
	TaskTimeout time.Duration
	// Watchdog bounds the whole run (default 90s).
	Watchdog time.Duration
	// SchedulerPolicy names the DFK's executor-selection policy ("" = the
	// default random pick). The acceptance matrix drives "locality" through
	// here: digest-aware routing must survive a shard kill unchanged.
	SchedulerPolicy string
}

func (c *ShardFailoverConfig) normalize() {
	if c.Shards < 2 {
		c.Shards = 4
	}
	if c.Victim < 0 || c.Victim >= c.Shards {
		c.Victim = 1
	}
	if c.Tasks <= 0 {
		c.Tasks = 160
	}
	if c.Managers <= 0 {
		c.Managers = 8
	}
	if c.MgrWorkers <= 0 {
		c.MgrWorkers = 1
	}
	if c.TaskMillis <= 0 {
		c.TaskMillis = 15
	}
	if c.Retries <= 0 {
		c.Retries = 8
	}
	if c.TaskTimeout <= 0 {
		c.TaskTimeout = 5 * time.Second
	}
	if c.Watchdog <= 0 {
		c.Watchdog = 90 * time.Second
	}
}

// ShardFailoverResult reports one failover run.
type ShardFailoverResult struct {
	Submitted     int
	Done          int
	Retried       int   // tasks that took more than one launch
	ExtraLaunches int   // total launches beyond one per task
	VictimHeld    int   // tasks with an attempt the client failed on the victim's account
	SurvivorMgrs  []int // per-survivor-shard manager counts after the kill
	ShardsAlive   int
	ShardsTotal   int
	Health        string // merged breaker state after the kill ("degraded")
	Kills         int    // chaos PointIxKill fires (must be exactly 1)
	Events        []chaos.Event
	Violations    []string
	Elapsed       time.Duration
}

func shardValue(i int) int { return i*7 + 1 }

// attemptLog wraps the HTEX client to map every wire id the DFK submits to
// its task index (args[0]). A retry can land on the victim before the
// client has noticed the death and fail there too, under a fresh wire id,
// so the oracle needs this map to name the task behind each failed attempt.
type attemptLog struct {
	*htex.Executor
	mu   sync.Mutex
	task map[int64]int // wire id -> task index
}

func (a *attemptLog) Submit(m serialize.TaskMsg) *future.Future {
	return a.SubmitBatch([]serialize.TaskMsg{m})[0]
}

func (a *attemptLog) SubmitBatch(msgs []serialize.TaskMsg) []*future.Future {
	a.mu.Lock()
	for _, m := range msgs {
		a.task[m.ID] = m.Args[0].(int)
	}
	a.mu.Unlock()
	return a.Executor.SubmitBatch(msgs)
}

// RunShardFailover executes the kill-one-shard scenario. The chaos plan is
// armed only once the victim shard demonstrably holds outstanding work, so
// the kill always lands mid-flight; the injector addresses the victim by its
// shard label ("htex[1]"), proving the chaos plane resolves individual
// shards of one logical executor.
func RunShardFailover(cfg ShardFailoverConfig) (ShardFailoverResult, error) {
	cfg.normalize()
	victimLabel := fmt.Sprintf("htex[%d]", cfg.Victim)
	inj := chaos.New(cfg.Seed, chaos.Plan{
		{Point: chaos.PointIxKill, Act: chaos.ActKill, Prob: 1, Match: victimLabel, Max: 1},
	})

	reg := serialize.NewRegistry()
	taskFn := func(args []any, _ map[string]any) (any, error) {
		time.Sleep(time.Duration(cfg.TaskMillis) * time.Millisecond)
		return shardValue(args[0].(int)), nil
	}

	hx := htex.New(htex.Config{
		Label:      "htex",
		Shards:     cfg.Shards,
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
	attempts := &attemptLog{Executor: hx, task: make(map[int64]int)}
	store := monitor.NewStore()
	d, err := dfk.New(dfk.Config{
		Registry:        reg,
		Executors:       []executor.Executor{attempts},
		Retries:         cfg.Retries,
		TaskTimeout:     cfg.TaskTimeout,
		Seed:            cfg.Seed,
		Monitor:         store,
		SchedulerPolicy: cfg.SchedulerPolicy,
	})
	if err != nil {
		return ShardFailoverResult{}, err
	}
	app, err := d.PythonApp("shard-bulk", taskFn)
	if err != nil {
		_ = d.Shutdown()
		return ShardFailoverResult{}, err
	}

	start := time.Now()
	res := ShardFailoverResult{Submitted: cfg.Tasks, ShardsTotal: cfg.Shards}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	// Every shard must hold managers before work flows, or placement spills
	// around empty shards and the victim may carry nothing worth killing.
	ready := time.Now().Add(10 * time.Second)
	for {
		placed, total := 0, 0
		for i := 0; i < hx.ShardCount(); i++ {
			n := hx.Shard(i).ManagerCount()
			total += n
			if n > 0 {
				placed++
			}
		}
		// The whole fleet must be registered — a partial snapshot would read
		// late registrations as kill fallout on the survivors.
		if placed == cfg.Shards && total == cfg.Managers {
			break
		}
		if time.Now().After(ready) {
			_ = d.Shutdown()
			return res, fmt.Errorf("shard failover: %d/%d managers on %d/%d shards",
				total, cfg.Managers, placed, cfg.Shards)
		}
		time.Sleep(time.Millisecond)
	}
	preMgrs := make([]int, hx.ShardCount())
	for i := range preMgrs {
		preMgrs[i] = hx.Shard(i).ManagerCount()
	}

	ctx := context.Background()
	futs := make([]*future.Future, 0, cfg.Tasks)
	for i := 0; i < cfg.Tasks; i++ {
		futs = append(futs, app.Submit(ctx, []any{i}))
	}

	// Arm the kill only once the victim holds outstanding work: the next
	// frame its interchange handles (a heartbeat at the latest) detonates.
	// This snapshot only times the kill; it bounds nothing, because the
	// burst may still be fanning tasks onto the victim when the kill lands.
	killDeadline := time.Now().Add(10 * time.Second)
	for hx.InflightByShard()[cfg.Victim] == 0 && time.Now().Before(killDeadline) {
		time.Sleep(time.Millisecond)
	}
	if pre := hx.InflightByShard(); pre[cfg.Victim] == 0 {
		violate("victim shard %d never held inflight tasks: %v", cfg.Victim, pre)
	}
	restore := chaos.Enable(inj)

	expired := make(chan struct{})
	watchdog := time.AfterFunc(cfg.Watchdog, func() { close(expired) })
	defer watchdog.Stop()
	stuck := false
	for _, f := range futs {
		select {
		case <-f.DoneChan():
		case <-expired:
			stuck = true
		}
		if stuck {
			break
		}
	}
	restore()
	res.Events = inj.Events()
	res.Kills = int(inj.Fires(chaos.PointIxKill))
	if stuck {
		n := 0
		for _, f := range futs {
			if !f.Done() {
				n++
			}
		}
		violate("watchdog %v expired with %d/%d tasks unsettled", cfg.Watchdog, n, len(futs))
		_ = hx.Shutdown()
		_ = d.Shutdown()
		res.Elapsed = time.Since(start)
		return res, nil
	}

	if res.Kills != 1 {
		violate("chaos fired %d shard kills, want exactly 1", res.Kills)
	}

	// Goodput invariant: every task completes with the right value — the
	// victim's lost set re-executes on the survivors via the retry plane.
	for i, f := range futs {
		v, ferr := f.Result()
		if ferr != nil {
			violate("task %d lost: %v", i, ferr)
			continue
		}
		if got, ok := v.(int); !ok || got != shardValue(i) {
			violate("task %d: value %v, want %d", i, v, shardValue(i))
		}
	}

	// Membership invariant: exactly the victim is gone, and the merged
	// health view degrades without going down.
	res.ShardsAlive, res.ShardsTotal = hx.ShardCounts()
	if res.ShardsAlive != cfg.Shards-1 {
		violate("shards alive = %d, want %d (only the victim dead)", res.ShardsAlive, cfg.Shards-1)
	}
	res.Health = hx.ShardHealth()
	if res.Health != "degraded" {
		violate("merged shard health %q, want degraded", res.Health)
	}
	// Blast-radius invariant: the survivors' manager fleets are untouched —
	// the kill must not cascade past the victim's endpoint.
	for i := 0; i < hx.ShardCount(); i++ {
		if i == cfg.Victim {
			continue
		}
		n := hx.Shard(i).ManagerCount()
		res.SurvivorMgrs = append(res.SurvivorMgrs, n)
		if n != preMgrs[i] {
			violate("shard %d manager count %d, was %d before the kill — survivors must be untouched", i, n, preMgrs[i])
		}
	}

	// Exactly-once invariant from the monitoring stream: one terminal
	// transition per task.
	terminals := make(map[int64]int)
	for _, e := range store.Events(monitor.KindTaskState) {
		switch e.To {
		case "done", "failed", "memoized":
			terminals[e.TaskID]++
		}
	}
	for id, n := range terminals {
		if n != 1 {
			violate("task %d reached a terminal state %d times", id, n)
		}
	}
	// Exact-requeue invariant: the set of re-executed tasks equals the set of
	// tasks with an attempt the client failed on the victim's account, and
	// the survivors fail nothing.
	attempts.mu.Lock()
	launches := make(map[int]int)
	for _, i := range attempts.task {
		launches[i]++
	}
	failed := make(map[int]bool)
	for _, id := range hx.FailedOnShard(cfg.Victim) {
		failed[attempts.task[id]] = true
	}
	attempts.mu.Unlock()
	res.VictimHeld = len(failed)
	for i, n := range launches {
		if n > 1 {
			res.Retried++
			res.ExtraLaunches += n - 1
			if !failed[i] {
				violate("task %d re-executed but the client never failed it on the victim's account", i)
			}
		}
	}
	for i := range failed {
		if launches[i] < 2 {
			violate("task %d failed on the victim but was not re-executed", i)
		}
	}
	if res.Retried == 0 {
		violate("no task re-executed — the kill missed the workload")
	}
	for i := 0; i < hx.ShardCount(); i++ {
		if n := len(hx.FailedOnShard(i)); i != cfg.Victim && n != 0 {
			violate("survivor shard %d failed %d tasks — the kill cascaded", i, n)
		}
	}

	sum := d.Summary()
	res.Done = sum["done"]
	if res.Done != cfg.Tasks {
		violate("done = %d, want %d", res.Done, cfg.Tasks)
	}
	if hx.Outstanding() != 0 {
		violate("htex client still tracks %d tasks after drain", hx.Outstanding())
	}
	for i := 0; i < hx.ShardCount(); i++ {
		if i == cfg.Victim {
			continue
		}
		if qd := hx.Shard(i).QueueDepth(); qd != 0 {
			violate("survivor shard %d queue holds %d tasks after drain", i, qd)
		}
	}
	if d.Outstanding() != 0 {
		violate("graph outstanding = %d after drain", d.Outstanding())
	}

	if err := d.Shutdown(); err != nil {
		violate("shutdown: %v", err)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// ShardScalingConfig shapes one throughput arm of the scaling comparison:
// the same total manager capacity behind S interchange shards, driven hard
// by parallel submitters.
type ShardScalingConfig struct {
	Seed int64
	// Shards is this arm's shard count (default 1).
	Shards int
	// Managers is the total manager count, held constant across arms
	// (default 8); MgrWorkers the workers per manager (default 2).
	Managers, MgrWorkers int
	// Tasks is the total task count (default 4000).
	Tasks int
	// Submitters is the parallel submitter goroutine count (default 4);
	// Batch the tasks per SubmitBatch call (default 32).
	Submitters, Batch int
}

func (c *ShardScalingConfig) normalize() {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Managers <= 0 {
		c.Managers = 8
	}
	if c.MgrWorkers <= 0 {
		c.MgrWorkers = 2
	}
	if c.Tasks <= 0 {
		c.Tasks = 4000
	}
	if c.Submitters <= 0 {
		c.Submitters = 4
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
}

// ShardScalingResult reports one throughput arm.
type ShardScalingResult struct {
	Shards      int
	Tasks       int
	Elapsed     time.Duration
	TasksPerSec float64
}

// RunShardScaling drives Tasks no-op tasks through an S-shard HTEX pool and
// reports client-observed throughput. Compare arms at equal total manager
// capacity: the single-broker arm serializes every frame through one router
// goroutine, the sharded arm spreads them over S — the ratio is the
// horizontal scaling the shard layer buys (only observable with enough
// cores to actually run the routers in parallel; the CI bar is gated on
// that).
func RunShardScaling(cfg ShardScalingConfig) (ShardScalingResult, error) {
	cfg.normalize()
	reg := serialize.NewRegistry()
	if err := reg.Register("noop", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	}); err != nil {
		return ShardScalingResult{}, err
	}

	hx := htex.New(htex.Config{
		Label:      "htex",
		Shards:     cfg.Shards,
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: cfg.Managers}),
		InitBlocks: 1,
		Manager:    htex.ManagerConfig{Workers: cfg.MgrWorkers, Prefetch: 2 * cfg.MgrWorkers},
		Interchange: htex.InterchangeConfig{
			Seed:               cfg.Seed,
			HeartbeatPeriod:    100 * time.Millisecond,
			HeartbeatThreshold: time.Second,
		},
	})
	if err := hx.Start(); err != nil {
		return ShardScalingResult{}, err
	}
	defer func() { _ = hx.Shutdown() }()
	ready := time.Now().Add(10 * time.Second)
	for hx.ConnectedWorkers() < cfg.Managers*cfg.MgrWorkers {
		if time.Now().After(ready) {
			return ShardScalingResult{}, fmt.Errorf("shard scaling: %d/%d workers connected",
				hx.ConnectedWorkers(), cfg.Managers*cfg.MgrWorkers)
		}
		time.Sleep(time.Millisecond)
	}

	perSubmitter := cfg.Tasks / cfg.Submitters
	total := perSubmitter * cfg.Submitters
	futs := make([][]*future.Future, cfg.Submitters)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < cfg.Submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			base := int64(s * perSubmitter)
			out := make([]*future.Future, 0, perSubmitter)
			for off := 0; off < perSubmitter; off += cfg.Batch {
				n := cfg.Batch
				if off+n > perSubmitter {
					n = perSubmitter - off
				}
				batch := make([]serialize.TaskMsg, n)
				for i := range batch {
					id := base + int64(off+i)
					batch[i] = serialize.TaskMsg{ID: id, App: "noop", Args: []any{int(id)}}
				}
				out = append(out, hx.SubmitBatch(batch)...)
			}
			futs[s] = out
		}(s)
	}
	wg.Wait()
	for _, fs := range futs {
		if err := future.Wait(fs...); err != nil {
			return ShardScalingResult{}, fmt.Errorf("shard scaling (%d shards): %w", cfg.Shards, err)
		}
	}
	elapsed := time.Since(start)
	return ShardScalingResult{
		Shards:      cfg.Shards,
		Tasks:       total,
		Elapsed:     elapsed,
		TasksPerSec: float64(total) / elapsed.Seconds(),
	}, nil
}
