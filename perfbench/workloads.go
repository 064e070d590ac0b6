package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// Workload shapes. Each workload is driven by one goroutine and sized for a
// 2-core host.
const (
	bagTasks        = 1024 // tasks per all-at-once round
	bagPayloadBytes = 1024 // seeded []byte argument per task
	bagShards       = 2    // interchange shards, one manager each
	bagWorkers      = 2    // workers per manager
	bagPrefetch     = 2    // extra task slots per manager

	dagChains  = 32 // independent dependency chains
	dagWindow  = 64 // submissions a chain runs ahead of its oldest wait
	dagWorkers = 2  // threadpool workers
)

var ctx = context.Background()

// workload is one benchmark scenario: how to deploy it, how to drive it for
// a measured phase, and which executor and argument shape its layer-floor
// probes use.
type workload interface {
	// build deploys the executor and DFK, registers the app, and returns once
	// the first task's result is back and correct.
	build() (*env, error)
	// run drives the workload for about d, checks every output, and adds
	// the outcome to p. A nil tracer runs untraced.
	run(e *env, d time.Duration, tr *tracer, p *phase)
	// htexConfig is the HTEX deployment the workload (or, for dag-chain,
	// its htex.roundtrip probe) runs on.
	htexConfig(nw *simnet.Network, reg *serialize.Registry) htex.Config
	// args is the argument list of one task, as EncodeArgs sees it.
	args() []any
}

func newWorkload(name string, seed int64) (workload, bool) {
	switch name {
	case "htex-serial":
		return &serialWL{seed: seed}, true
	case "htex-bag":
		return newBag(seed), true
	case "dag-chain":
		return newDag(seed), true
	}
	return nil, false
}

var workloadNames = []string{"htex-serial", "htex-bag", "dag-chain"}

// env is one deployed DFK with its app.
type env struct {
	dfk  *dfk.DFK
	htex *htex.Executor // nil when the DFK runs a threadpool
	app  *dfk.App
	// submitted counts every task submitted to the DFK, set-up and warm-up
	// included, for the graph-recycling check.
	submitted int64
}

func newEnv(ex executor.Executor, hx *htex.Executor, reg *serialize.Registry, seed int64,
	appName string, fn serialize.Fn) (*env, error) {
	d, err := dfk.New(dfk.Config{Executors: []executor.Executor{ex}, Registry: reg, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("dfk: %w", err)
	}
	app, err := d.PythonApp(appName, fn)
	if err != nil {
		_ = d.Shutdown()
		return nil, fmt.Errorf("register %s: %w", appName, err)
	}
	return &env{dfk: d, htex: hx, app: app}, nil
}

// call submits one task and waits for its result, checking it with ok.
func (e *env) call(args []any, ok func(v any) bool) error {
	e.submitted++
	v, err := e.app.Submit(ctx, args).Result()
	if err != nil {
		return err
	}
	if !ok(v) {
		return fmt.Errorf("task returned wrong value %v", v)
	}
	return nil
}

// finish waits for every task, checks that the graph recycled exactly the
// records of all submitted tasks, and shuts the DFK down.
func (e *env) finish() error {
	e.dfk.WaitAll()
	if got := e.dfk.Graph().RecycledNodes(); got != e.submitted {
		_ = e.dfk.Shutdown()
		return fmt.Errorf("task graph recycled %d records, want %d (one per submitted task)", got, e.submitted)
	}
	return e.dfk.Shutdown()
}

// phase accumulates the outcome of the measured segments of a run.
type phase struct {
	tasks    int64 // tasks whose result was collected
	failed   int64 // tasks that failed or returned a wrong value
	lost     int64 // failures that were HTEX LostErrors
	firstErr error
	rates    []float64  // tasks per second of each segment
	lat      *reservoir // Submit to Result, per task
}

func newPhase(seed int64) *phase { return &phase{lat: newReservoir(seed)} }

// record counts one collected task; a non-nil err marks it failed or wrong.
func (p *phase) record(err error) {
	p.tasks++
	if err == nil {
		return
	}
	p.failed++
	var lost *executor.LostError
	if errors.As(err, &lost) {
		p.lost++
	}
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// segment adds one measured segment of n tasks run in d.
func (p *phase) segment(n int64, d time.Duration) {
	p.rates = append(p.rates, float64(n)/d.Seconds())
}

// tasksPerSec is the median over the segments' completion rates.
func (p *phase) tasksPerSec() float64 { return median(p.rates) }

func noop([]any, map[string]any) (any, error) { return nil, nil }

func localProvider() provider.Provider {
	return provider.NewLocal(provider.Config{NodesPerBlock: 1})
}

// asInt64 normalizes the integer kinds a result may arrive as (threadpool
// results keep their Go type, HTEX results cross gob).
func asInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int64:
		return x, true
	}
	return 0, false
}

// serialWL is htex-serial: a closed loop with one client and one outstanding
// no-op task, on one shard, one manager and one worker over simnet.Midway
// (the paper's Fig. 3 method).
type serialWL struct{ seed int64 }

func (w *serialWL) htexConfig(nw *simnet.Network, reg *serialize.Registry) htex.Config {
	return htex.Config{
		Label: "htex", Transport: nw, Registry: reg,
		Provider: localProvider(), InitBlocks: 1, Shards: 1,
		Manager:     htex.ManagerConfig{Workers: 1},
		Interchange: htex.InterchangeConfig{Seed: w.seed + 1},
	}
}

func (w *serialWL) args() []any { return nil }

func (w *serialWL) build() (*env, error) {
	reg := serialize.NewRegistry()
	ex := htex.New(w.htexConfig(simnet.Midway(), reg))
	e, err := newEnv(ex, ex, reg, w.seed, "noop", noop)
	if err != nil {
		return nil, err
	}
	if err := e.call(nil, func(v any) bool { return v == nil }); err != nil {
		_ = e.dfk.Shutdown()
		return nil, fmt.Errorf("first task: %w", err)
	}
	return e, nil
}

func (w *serialWL) run(e *env, d time.Duration, tr *tracer, p *phase) {
	before := p.tasks
	start := time.Now()
	deadline := start.Add(d)
	for now := start; now.Before(deadline); {
		s0 := time.Now()
		f := e.app.Submit(ctx, nil)
		e.submitted++
		var s1 time.Time
		if tr != nil {
			s1 = time.Now()
		}
		v, err := f.Result()
		now = time.Now()
		p.lat.add(now.Sub(s0))
		if err == nil && v != nil {
			err = fmt.Errorf("no-op returned %v", v)
		}
		p.record(err)
		if tr != nil {
			tr.task(f.TaskID, s0, s1, s1, now)
		}
	}
	p.segment(p.tasks-before, time.Since(start))
}

// bagWL is htex-bag, the Table 2 method: every round submits all bagTasks
// tasks up front and then drains them. Each task carries a seeded 1 KiB
// []byte and returns its FNV-1a checksum; HTEX runs bagShards interchange
// shards, each with one manager of bagWorkers workers and bagPrefetch
// prefetch slots.
type bagWL struct {
	seed     int64
	payloads [][]byte
	sums     []int64
}

func newBag(seed int64) *bagWL {
	rng := rand.New(rand.NewSource(seed))
	w := &bagWL{seed: seed, payloads: make([][]byte, bagTasks), sums: make([]int64, bagTasks)}
	for i := range w.payloads {
		b := make([]byte, bagPayloadBytes)
		rng.Read(b)
		w.payloads[i] = b
		w.sums[i] = checksum(b)
	}
	return w
}

func checksum(b []byte) int64 {
	h := fnv.New64a()
	h.Write(b)
	return int64(h.Sum64())
}

func checksumApp(args []any, _ map[string]any) (any, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("checksum: want 1 argument, got %d", len(args))
	}
	b, ok := args[0].([]byte)
	if !ok {
		return nil, fmt.Errorf("checksum: argument is %T, want []byte", args[0])
	}
	return checksum(b), nil
}

func (w *bagWL) htexConfig(nw *simnet.Network, reg *serialize.Registry) htex.Config {
	return htex.Config{
		Label: "htex", Transport: nw, Registry: reg,
		Provider: localProvider(), InitBlocks: bagShards, Shards: bagShards,
		Manager:     htex.ManagerConfig{Workers: bagWorkers, Prefetch: bagPrefetch},
		Interchange: htex.InterchangeConfig{Seed: w.seed + 1},
	}
}

func (w *bagWL) args() []any { return []any{w.payloads[0]} }

func (w *bagWL) build() (*env, error) {
	reg := serialize.NewRegistry()
	ex := htex.New(w.htexConfig(simnet.Midway(), reg))
	e, err := newEnv(ex, ex, reg, w.seed, "checksum", checksumApp)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*env, error) {
		_ = e.dfk.Shutdown()
		return nil, err
	}
	if err := e.call(w.args(), func(v any) bool { x, ok := asInt64(v); return ok && x == w.sums[0] }); err != nil {
		return fail(fmt.Errorf("first task: %w", err))
	}
	// The deployment is ready once every shard has its manager.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ready := true
		for i := 0; i < ex.ShardCount(); i++ {
			ready = ready && ex.Shard(i).ManagerCount() > 0
		}
		if ready {
			return e, nil
		}
		if time.Now().After(deadline) {
			return fail(errors.New("a shard has no manager after 10s"))
		}
	}
}

func (w *bagWL) run(e *env, d time.Duration, tr *tracer, p *phase) {
	futs := make([]*future.Future, bagTasks)
	s0s := make([]time.Time, bagTasks)
	s1s := make([]time.Time, bagTasks)
	before := p.tasks
	start := time.Now()
	for time.Since(start) < d {
		for i, b := range w.payloads {
			s0s[i] = time.Now()
			futs[i] = e.app.Submit(ctx, []any{b})
			if tr != nil {
				s1s[i] = time.Now()
			}
		}
		e.submitted += bagTasks
		for i, f := range futs {
			var w0 time.Time
			if tr != nil {
				w0 = time.Now()
			}
			v, err := f.Result()
			now := time.Now()
			p.lat.add(now.Sub(s0s[i]))
			if x, ok := asInt64(v); err == nil && (!ok || x != w.sums[i]) {
				err = fmt.Errorf("task %d checksum %v, want %d", i, v, w.sums[i])
			}
			p.record(err)
			if tr != nil {
				tr.task(f.TaskID, s0s[i], s1s[i], w0, now)
			}
			futs[i] = nil
		}
	}
	p.segment(p.tasks-before, time.Since(start))
}

// dagWL is dag-chain: dagChains dependency chains on a dagWorkers-worker
// threadpool. One goroutine round-robins over the chains; before a chain's
// next submission it waits on that chain's task dagWindow steps back. Each
// task returns its predecessor's result + 1, starting from a seeded base.
type dagWL struct {
	seed  int64
	bases []int64
}

func newDag(seed int64) *dagWL {
	rng := rand.New(rand.NewSource(seed))
	w := &dagWL{seed: seed, bases: make([]int64, dagChains)}
	for i := range w.bases {
		w.bases[i] = rng.Int63n(1 << 20)
	}
	return w
}

func incApp(args []any, _ map[string]any) (any, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("inc: want 1 argument, got %d", len(args))
	}
	x, ok := asInt64(args[0])
	if !ok {
		return nil, fmt.Errorf("inc: argument is %T, want an integer", args[0])
	}
	return x + 1, nil
}

// htexConfig is the single-shard deployment its htex.roundtrip probe uses.
func (w *dagWL) htexConfig(nw *simnet.Network, reg *serialize.Registry) htex.Config {
	return (&serialWL{seed: w.seed}).htexConfig(nw, reg)
}

// args is the shape a chain task is encoded with: the predecessor's
// resolved integer.
func (w *dagWL) args() []any { return []any{w.bases[0]} }

func (w *dagWL) build() (*env, error) {
	reg := serialize.NewRegistry()
	e, err := newEnv(threadpool.New("threadpool", dagWorkers, reg), nil, reg, w.seed, "inc", incApp)
	if err != nil {
		return nil, err
	}
	if err := e.call(w.args(), func(v any) bool { x, ok := asInt64(v); return ok && x == w.bases[0]+1 }); err != nil {
		_ = e.dfk.Shutdown()
		return nil, fmt.Errorf("first task: %w", err)
	}
	return e, nil
}

func (w *dagWL) run(e *env, d time.Duration, tr *tracer, p *phase) {
	var (
		ring [dagChains][dagWindow]*future.Future
		s0s  [dagChains][dagWindow]time.Time
		s1s  [dagChains][dagWindow]time.Time
		prev [dagChains]*future.Future
	)
	// wait collects the task chain c submitted at step s and checks that it
	// is the chain's (s+1)th value.
	wait := func(c, s int) {
		slot := s % dagWindow
		f := ring[c][slot]
		var w0 time.Time
		if tr != nil {
			w0 = time.Now()
		}
		v, err := f.Result()
		now := time.Now()
		p.lat.add(now.Sub(s0s[c][slot]))
		want := w.bases[c] + int64(s) + 1
		if x, ok := asInt64(v); err == nil && (!ok || x != want) {
			err = fmt.Errorf("chain %d step %d returned %v, want %d", c, s, v, want)
		}
		p.record(err)
		if tr != nil {
			tr.task(f.TaskID, s0s[c][slot], s1s[c][slot], w0, now)
		}
		ring[c][slot] = nil
	}
	before := p.tasks
	start := time.Now()
	steps := 0
	for ; steps < dagWindow || time.Since(start) < d; steps++ {
		slot := steps % dagWindow
		for c := 0; c < dagChains; c++ {
			if steps >= dagWindow {
				wait(c, steps-dagWindow)
			}
			var arg any = w.bases[c]
			if steps > 0 {
				arg = prev[c]
			}
			s0s[c][slot] = time.Now()
			f := e.app.Submit(ctx, []any{arg})
			if tr != nil {
				s1s[c][slot] = time.Now()
			}
			ring[c][slot], prev[c] = f, f
		}
	}
	e.submitted += int64(steps) * dagChains
	// Drain: the last wait of each chain collects its final value, which
	// must equal the chain's base plus its length.
	for s := max(0, steps-dagWindow); s < steps; s++ {
		for c := 0; c < dagChains; c++ {
			wait(c, s)
		}
	}
	p.segment(p.tasks-before, time.Since(start))
}
