// Package task defines the task record and dependency-graph bookkeeping used
// by the DataFlowKernel. A task is a node in the dynamic DAG (§3.4); edges
// are the futures exchanged between tasks. The DFK owns state transitions;
// this package provides the data structures and their invariants.
package task

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/future"
	"repro/internal/serialize"
)

// State is the lifecycle of a task inside the DataFlowKernel, mirroring the
// states Parsl's monitoring records (§4.6).
type State int32

const (
	// Unsched: created but dependencies not yet examined.
	Unsched State = iota
	// Pending: waiting on unresolved dependencies.
	Pending
	// DataStaging: waiting on injected data-transfer tasks (§4.5).
	DataStaging
	// Launched: handed to an executor, result future outstanding.
	Launched
	// Running: executor reported the task as started (best effort).
	Running
	// Retrying: failed and resubmitted; Attempts has been incremented.
	Retrying
	// Done: completed successfully; result set on the AppFuture.
	Done
	// Failed: exhausted retries; exception set on the AppFuture.
	Failed
	// Memoized: completed from the memo table / checkpoint without launch.
	Memoized
)

var stateNames = map[State]string{
	Unsched:     "unsched",
	Pending:     "pending",
	DataStaging: "data_staging",
	Launched:    "launched",
	Running:     "running",
	Retrying:    "retrying",
	Done:        "done",
	Failed:      "failed",
	Memoized:    "memoized",
}

// String implements fmt.Stringer.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Memoized }

// validNext encodes the permitted state machine. The DFK enforces it via
// Record.SetState; invalid transitions indicate engine bugs and are surfaced
// as errors rather than silently accepted.
var validNext = map[State][]State{
	Unsched:     {Pending, DataStaging, Launched, Memoized, Failed},
	Pending:     {Launched, DataStaging, Memoized, Failed},
	DataStaging: {Pending, Launched, Failed},
	Launched:    {Running, Done, Failed, Retrying},
	Running:     {Done, Failed, Retrying},
	Retrying:    {Launched, Failed},
}

// Record is a node in the task graph. Fields under mu are mutated by the DFK
// as execution progresses; immutable identity fields are set at creation.
type Record struct {
	ID       int64
	AppName  string
	FuncHash string // hash of the app "body" used by memoization keys
	Args     []any  // raw args as submitted (may contain futures)
	Kwargs   map[string]any

	// Future is the AppFuture returned to the program at submission time.
	Future *future.Future

	// Hints restrict which executors may run the task; empty means any.
	Hints []string

	mu          sync.Mutex
	state       State
	attempts    int
	maxRetries  int
	executor    string // label of the executor the task was launched on
	memoKey     string
	pendingDeps int

	// Per-call submission options (App.Submit's CallOptions), fixed before
	// the task becomes ready and read by the dispatch pipeline.
	priority    int
	timeout     time.Duration // per-call override of Config.TaskTimeout
	deadline    time.Time     // absolute per-call deadline (zero = none)
	memoKeyOver string        // per-call memo key override ("" = computed)
	tenant      string        // fair-queuing tenant id ("" = default tenant)
	weight      int           // tenant DRR weight (0 = leave current, min 1)

	// Current execution attempt: its outcome future and wire id, recorded so
	// a cancellation arriving from outside the dispatch pipeline can conclude
	// the attempt (dropping it from its lane) and name it to the executor.
	attemptFut  *future.Future
	attemptWire int64

	// payload is the encode-once serialization of the resolved arguments,
	// recorded when the task first becomes ready. Every later consumer —
	// retries, the memo hash, executor wire frames, deep copies — reuses
	// these bytes instead of re-encoding.
	payload *serialize.Payload

	// Timestamps for monitoring and the elasticity utilization metric.
	SubmitTime time.Time
	launchTime time.Time
	startTime  time.Time
	endTime    time.Time

	// transitions points into transBuf until the task records more than
	// len(transBuf) state changes (retry-heavy tasks), then spills to a heap
	// slice which recycling keeps for the next occupant. The common
	// pending→launched→done life never allocates.
	transitions []Transition
	transBuf    [4]Transition

	// Recycling bookkeeping (all under mu). gen is the generation stamp:
	// asynchronous consumers (dependency callbacks, context watchers, the
	// dispatch pipeline) capture it at registration and revalidate with
	// Enter before touching the record, so a pooled record reused for a new
	// task is never corrupted by a straggler holding a stale pointer. holds
	// counts consumers currently inside an Enter/Exit window; retired marks
	// that the graph has pruned the record — the last Exit (or Retire itself
	// when nobody is inside) resets the record and returns it to the pool.
	gen     uint32
	holds   int32
	retired bool

	// walKey is the task's durable key in the write-ahead log (0 = not
	// logged). Recovery dedups by it: a replayed task keeps its pre-crash
	// key, so its post-crash transitions append to the same durable history.
	walKey int64

	// admitted records that this task holds an admission-controller slot;
	// the DFK's retire path consumes it (TakeAdmitted) to release the slot
	// exactly once without a per-task closure.
	admitted bool

	// cancelStop detaches the context watcher (context.AfterFunc's stop);
	// stored here so retirement can stop it without allocating a callback.
	cancelStop func() bool
}

// Transition records one state change for monitoring.
type Transition struct {
	From State
	To   State
	At   time.Time
}

// recordPool recycles terminal Records (and, via resetLocked, their
// transition slices). The AppFuture is deliberately NOT pooled: it is the
// user-visible handle, may outlive the record arbitrarily, and keeps the
// task's result reachable after the record has been reused.
var recordPool = sync.Pool{New: func() any { return new(Record) }}

// NewRecord creates a task record in the Unsched state with its AppFuture.
// Records come from a pool; initialization happens under the record's mutex
// so a straggler probing a stale handle (Enter on an old generation) never
// races the reuse.
func NewRecord(id int64, appName string, args []any, kwargs map[string]any) *Record {
	r := recordPool.Get().(*Record)
	r.mu.Lock()
	r.ID = id
	r.AppName = appName
	r.Args = args
	r.Kwargs = kwargs
	r.Future = future.NewForTask(id)
	r.state = Unsched
	r.SubmitTime = time.Now()
	r.mu.Unlock()
	return r
}

// Gen returns the record's current generation stamp. Asynchronous consumers
// capture it while the record is known-live and pass it back to Enter.
func (r *Record) Gen() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// Enter validates a generation stamp and, on success, takes a hold that
// keeps the record from being recycled until the matching Exit. It returns
// false when the record has moved on to a new generation — the caller's
// handle is stale and the record must not be touched. A record that is
// retired but not yet recycled still admits holds: its fields remain valid
// until the last hold drops.
func (r *Record) Enter(gen uint32) bool {
	r.mu.Lock()
	if r.gen != gen {
		r.mu.Unlock()
		return false
	}
	r.holds++
	r.mu.Unlock()
	return true
}

// Exit drops a hold taken by Enter, recycling the record if it was retired
// and this was the last hold. Exit without a matching Enter is an engine bug
// (a missed generation check) and panics.
func (r *Record) Exit() {
	r.mu.Lock()
	if r.holds <= 0 {
		id := r.ID
		r.mu.Unlock()
		panic(fmt.Sprintf("task %d: Exit without matching Enter (use-after-recycle guard)", id))
	}
	r.holds--
	if r.retired && r.holds == 0 {
		r.recycleLocked()
		return
	}
	r.mu.Unlock()
}

// Retire marks the record as pruned from the graph. If no consumer holds it,
// the record is reset and returned to the pool immediately; otherwise the
// last Exit recycles it. Called exactly once per task, by Graph.Retire.
func (r *Record) Retire() {
	r.mu.Lock()
	if r.retired {
		id := r.ID
		r.mu.Unlock()
		panic(fmt.Sprintf("task %d: double retire", id))
	}
	r.retired = true
	if r.holds == 0 {
		r.recycleLocked()
		return
	}
	r.mu.Unlock()
}

// recycleLocked resets the record for reuse and returns it to the pool.
// Called with r.mu held; unlocks it. The generation bump is what invalidates
// every outstanding handle: a later Enter with the old stamp fails.
func (r *Record) recycleLocked() {
	r.gen++
	r.ID = 0
	r.AppName = ""
	r.FuncHash = ""
	r.Args = nil
	r.Kwargs = nil
	r.Future = nil
	r.Hints = nil
	r.state = Unsched
	r.attempts = 0
	r.maxRetries = 0
	r.executor = ""
	r.memoKey = ""
	r.pendingDeps = 0
	r.priority = 0
	r.timeout = 0
	r.deadline = time.Time{}
	r.memoKeyOver = ""
	r.tenant = ""
	r.weight = 0
	r.attemptFut = nil
	r.attemptWire = 0
	r.payload = nil
	r.SubmitTime = time.Time{}
	r.launchTime = time.Time{}
	r.startTime = time.Time{}
	r.endTime = time.Time{}
	r.transitions = r.transitions[:0]
	r.walKey = 0
	r.retired = false
	r.admitted = false
	r.cancelStop = nil
	r.mu.Unlock()
	recordPool.Put(r)
}

// SetAdmitted marks that the task holds an admission-controller slot.
func (r *Record) SetAdmitted() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.admitted = true
}

// TakeAdmitted consumes the admission mark, reporting whether a slot was
// held. At most one caller observes true.
func (r *Record) TakeAdmitted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	was := r.admitted
	r.admitted = false
	return was
}

// SetCancelStop stores the context watcher's detach function.
func (r *Record) SetCancelStop(stop func() bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cancelStop = stop
}

// TakeCancelStop consumes the watcher detach function (nil if none or
// already taken).
func (r *Record) TakeCancelStop() func() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	stop := r.cancelStop
	r.cancelStop = nil
	return stop
}

// State returns the current state.
func (r *Record) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// SetState transitions the task, validating against the state machine. It
// returns an error on an illegal transition. Terminal states are sticky.
func (r *Record) SetState(s State) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == s {
		return nil
	}
	return r.setStateLocked(s)
}

// Advance is SetState for a caller that must know the state it left and must
// be the only one to conclude the task: from is read under the same lock as
// the move, and re-entering the terminal state the task already holds is
// refused rather than a no-op, so exactly one of several racing callers
// wins a terminal state. A non-terminal same-state call succeeds with
// from == s and records nothing.
func (r *Record) Advance(s State) (from State, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	from = r.state
	if from == s && !s.Terminal() {
		return from, nil
	}
	return from, r.setStateLocked(s)
}

func (r *Record) setStateLocked(s State) error {
	if r.state.Terminal() {
		return fmt.Errorf("task %d: transition %v -> %v from terminal state", r.ID, r.state, s)
	}
	ok := false
	for _, n := range validNext[r.state] {
		if n == s {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("task %d: illegal transition %v -> %v", r.ID, r.state, s)
	}
	now := time.Now()
	if r.transitions == nil {
		r.transitions = r.transBuf[:0]
	}
	r.transitions = append(r.transitions, Transition{From: r.state, To: s, At: now})
	switch s {
	case Launched:
		r.launchTime = now
	case Running:
		r.startTime = now
	case Done, Failed, Memoized:
		r.endTime = now
	}
	r.state = s
	return nil
}

// Transitions returns a copy of the recorded state changes.
func (r *Record) Transitions() []Transition {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Transition, len(r.transitions))
	copy(out, r.transitions)
	return out
}

// Attempts returns how many times the task has been (re)launched.
func (r *Record) Attempts() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempts
}

// IncAttempts bumps the attempt counter and returns the new value.
func (r *Record) IncAttempts() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempts++
	return r.attempts
}

// SetAttempts seeds the attempt counter — recovery uses it so launches
// consumed before a crash keep counting against the budget: a task replayed
// with n logged launches resumes as if n attempts already failed, keeping
// total launches across process lifetimes within retries+1.
func (r *Record) SetAttempts(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempts = n
}

// SetWALKey records the task's durable write-ahead-log key.
func (r *Record) SetWALKey(k int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.walKey = k
}

// WALKey returns the durable log key (0 = task not logged).
func (r *Record) WALKey() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.walKey
}

// SetMaxRetries configures the retry budget for this task.
func (r *Record) SetMaxRetries(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxRetries = n
}

// MaxRetries returns the retry budget.
func (r *Record) MaxRetries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxRetries
}

// SetExecutor records which executor the task was launched on.
func (r *Record) SetExecutor(label string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.executor = label
}

// Executor returns the label of the executor that ran (or is running) the task.
func (r *Record) Executor() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executor
}

// SetMemoKey stores the memoization key computed at submit time.
func (r *Record) SetMemoKey(k string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.memoKey = k
}

// MemoKey returns the memoization key ("" when memoization is off).
func (r *Record) MemoKey() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memoKey
}

// SetPendingDeps initializes the unresolved-dependency counter.
func (r *Record) SetPendingDeps(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pendingDeps = n
}

// DepResolved decrements the unresolved-dependency counter and returns the
// remaining count. The DFK launches the task when it reaches zero.
func (r *Record) DepResolved() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pendingDeps > 0 {
		r.pendingDeps--
	}
	return r.pendingDeps
}

// PendingDeps returns the unresolved-dependency count.
func (r *Record) PendingDeps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pendingDeps
}

// SetPriority records the per-call dispatch priority (higher runs first).
func (r *Record) SetPriority(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.priority = p
}

// Priority returns the dispatch priority (0 unless set at submission).
func (r *Record) Priority() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.priority
}

// SetTimeout records a per-call attempt timeout overriding Config.TaskTimeout.
func (r *Record) SetTimeout(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.timeout = d
}

// Timeout returns the per-call attempt timeout (0 = use the DFK default).
func (r *Record) Timeout() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.timeout
}

// SetDeadline records an absolute per-call deadline.
func (r *Record) SetDeadline(t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deadline = t
}

// Deadline returns the absolute per-call deadline (zero = none).
func (r *Record) Deadline() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deadline
}

// SetTenant records the submission's fair-queuing tenant and DRR weight
// (App.Submit's WithTenant). Fixed before the task enters the dispatch
// pipeline; every fair queue the task crosses reads it from here.
func (r *Record) SetTenant(id string, weight int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tenant = id
	r.weight = weight
}

// Tenant returns the fair-queuing tenant id ("" = default tenant).
func (r *Record) Tenant() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenant
}

// TenantWeight returns the tenant DRR weight carried by this submission
// (0 = no update; queues treat the tenant's current weight, default 1, as
// authoritative).
func (r *Record) TenantWeight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.weight
}

// SetMemoKeyOverride records an explicit per-call memoization key.
func (r *Record) SetMemoKeyOverride(k string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.memoKeyOver = k
}

// MemoKeyOverride returns the explicit memo key ("" = compute from args).
func (r *Record) MemoKeyOverride() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memoKeyOver
}

// SetPayload records the encode-once serialized arguments at first launch.
func (r *Record) SetPayload(p *serialize.Payload) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.payload = p
}

// Payload returns the encode-once serialized arguments (nil before the task
// first becomes ready, and for memoized tasks that never launched).
func (r *Record) Payload() *serialize.Payload {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.payload
}

// SetAttempt records the in-flight attempt's outcome future and wire id.
func (r *Record) SetAttempt(f *future.Future, wireID int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attemptFut, r.attemptWire = f, wireID
}

// Attempt returns the current attempt's outcome future and wire id (nil, 0
// before the task first becomes ready).
func (r *Record) Attempt() (*future.Future, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attemptFut, r.attemptWire
}

// Timings returns (launch, start, end) timestamps; zero values when unset.
func (r *Record) Timings() (launch, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.launchTime, r.startTime, r.endTime
}

// String implements fmt.Stringer.
func (r *Record) String() string {
	return fmt.Sprintf("Task{%d %s %s}", r.ID, r.AppName, r.State())
}
