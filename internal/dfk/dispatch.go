package dfk

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
	"repro/internal/fair"
	"repro/internal/future"
	"repro/internal/health"
	"repro/internal/serialize"
	"repro/internal/task"
)

// pendingLaunch is one execution attempt waiting in the dispatch pipeline:
// the task record (with the generation stamp that validates it), the app that
// produced it, and its fully resolved arguments. Retries create a fresh
// pendingLaunch (sharing rec/app/args/payload), so a stale queue entry whose
// attempt already timed out can be recognized and skipped.
//
// The struct is the hot path's one unavoidable allocation, so everything an
// attempt needs lives inside it: the attempt future is embedded by value, the
// executor-relay is an embedded struct registered as a DoneHook, and the
// pendingLaunch itself is the DoneHook of its own attempt — no per-attempt
// closures.
type pendingLaunch struct {
	d   *DFK
	rec *task.Record
	// gen is rec's generation stamp captured at creation. Every pipeline
	// stage revalidates with rec.Enter(gen) before touching the record, so
	// an entry left in a queue after its task concluded (and its record was
	// recycled for a new task) is recognized and dropped instead of
	// corrupting the record's new occupant.
	gen    uint32
	app    *App
	args   []any
	kwargs map[string]any
	// payload is the encode-once serialization of args/kwargs, built in
	// launch and shared by every attempt: executors reuse the bytes for
	// wire frames and defensive copies instead of re-encoding per attempt.
	// Each pendingLaunch holds its own payload reference from creation
	// until its attempt settles, so queued bytes can never be recycled
	// under a pending attempt; the lane runner takes one more reference per
	// executor submission, released when the executor future settles.
	payload *serialize.Payload
	// attempt is this attempt's outcome future, embedded by value (the
	// zero Future is pending). The TaskTimeout timer is armed against it
	// when the attempt enters the dispatch queue — so a task stuck behind a
	// backlogged lane times out on schedule — and the executor's result is
	// forwarded into it after submission. Completing it (either way) fires
	// the pendingLaunch's own FutureDone exactly once.
	attempt future.Future
	// relay forwards the executor future's outcome into attempt; registered
	// as the executor future's DoneHook at submission.
	relay execRelay
	// timer is the attempt timeout, stopped when the attempt settles.
	timer *time.Timer
	// wireID identifies this attempt on the executor wire. The first
	// attempt uses the task id; retries of a timed-out attempt draw a
	// fresh id, because the abandoned attempt may still be in flight and
	// executors key their pending/outstanding state by wire id — reusing
	// the task id would let the stale attempt's late result complete (or
	// corrupt the accounting of) the new one.
	wireID int64
	// priority caches rec.Priority(), which is immutable once the task is
	// ready: queue comparisons and routing run on the dispatch hot path and
	// must not take the record mutex per element.
	priority int
	// tenant/weight cache rec.Tenant()/rec.TenantWeight() for the same
	// reason: every fair queue the attempt crosses keys on them.
	tenant string
	weight int
	// digest is the task's input-content digest (payload.ArgsHash), computed
	// at launch only when the scheduler is a sched.DigestPicker ("" blank
	// otherwise — the hash allocates) and carried across retries so every
	// attempt routes with the same locality key.
	digest string
	// walKey is the task's durable-log key (0 when the WAL is off) and
	// walAttempt this attempt's 1-based launch number across process
	// lifetimes — a resumed task starts past its pre-crash launches. The
	// lane runner logs the Launch record for attempt 1; retries and resumes
	// log Retry records at creation, so the log's launch count never trails
	// the attempts the retry budget has charged.
	walKey     int64
	walAttempt int
	// Health-plane state, threaded attempt to attempt (zero-valued and
	// untouched by the flat plane — value fields only, so a first attempt
	// pays no allocation for them). kills is the distinct managers this
	// task's attempts have killed (poison quarantine counts them); free
	// counts uncharged retries consumed per failure class; stick is the
	// retry-affinity executor for non-failover classes ("" = none).
	kills []string
	free  [health.NumClasses]uint8
	stick string
}

// FutureDone makes the pendingLaunch the DoneHook of its own attempt future:
// stop the timeout clock, run retry-or-finish handling if the record is still
// this attempt's generation, and drop the attempt's payload reference.
func (pl *pendingLaunch) FutureDone(af *future.Future) {
	if pl.timer != nil {
		pl.timer.Stop()
		pl.timer = nil
	}
	if pl.rec.Enter(pl.gen) {
		pl.d.attemptDone(pl, af)
		pl.rec.Exit()
	}
	pl.payload.Release()
}

// execRelay forwards an executor future's outcome into the attempt future as
// the executor future's DoneHook. The relay loses the race against the
// attempt's timeout timer harmlessly: a completed attempt future rejects
// further writes. It also releases the per-submission payload reference the
// lane runner took, which is what keeps the payload bytes alive for ghost
// submissions (attempt timed out, executor still holds the frame).
type execRelay struct {
	pl *pendingLaunch
}

// FutureDone implements future.DoneHook.
func (r *execRelay) FutureDone(ef *future.Future) {
	pl := r.pl
	if v, err := ef.Result(); err != nil {
		_ = pl.attempt.SetError(err)
	} else {
		_ = pl.attempt.SetResult(v)
	}
	pl.payload.Release()
}

// laneLess orders one tenant's routed-but-unsubmitted attempts by dispatch
// priority (higher first), breaking ties by wire id (lower first), so equal-
// priority work keeps submission order and WithPriority is observable the
// moment a lane backs up. Priority is scoped to the submitting tenant: an
// urgent task jumps its own tenant's sub-queue, never another tenant's fair
// share — otherwise priority would be a cross-tenant starvation primitive.
func laneLess(a, b *pendingLaunch) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.wireID < b.wireID
}

// The dispatch pipeline's queues come in two shapes. The routing queue
// feeding the dispatcher is a sharded MPSC queue (fair.MPSC) keyed by wire
// id: submitters touch only their shard's mutex, so parallel submission
// stops contending on a single queue head, and the single router drains the
// shards round-robin. Routing is a fast hop with no waiting, so it carries
// no fairness machinery of its own — the per-executor lanes feeding the lane
// runners, where tasks actually wait, remain deficit-round-robin weighted
// fair queues (fair.Queue) keyed by the submitting tenant. A single-tenant
// program (the default) sees exactly the old behavior: FIFO routing,
// priority-ordered lanes. With multiple tenants, each lane drains tenants in
// proportion to their WithTenant weights, so one hot submitter cannot
// head-of-line-block the others anywhere tasks wait on the client side (the
// HTEX interchange applies the same discipline past the wire).
//
// Boundedness invariant: these queues are deliberately UNBOUNDED, and per-
// tenant volume is bounded elsewhere — by admission control at the App.Submit
// boundary (Config.MaxTasksPerTenant / TenantQuotas, enforced before a task
// record exists). The split is what keeps the pipeline deadlock-free:
// pushes into these queues come from executor completion callbacks
// (dependency edges fire there, and retries re-enter the routing queue from
// attempt callbacks), and a bounded queue could deadlock the pipeline when
// both it and an executor's input queue fill — a worker blocked pushing a
// dependent launch is a worker that never drains the executor queue the
// dispatcher is blocked on. Admission, in contrast, blocks only the
// submitting goroutine, which holds no pipeline resources; its quota is
// released by task-retirement bookkeeping that never passes through it. So
// the lanes cannot deadlock regardless of quota, policy, or executor
// backpressure (an executor's blocking SubmitBatch stalls only its own lane
// runner), and memory under overload is O(sum of tenant quotas), not
// O(submissions).

// lane is the per-executor leg of the dispatch pipeline: a tenant-fair,
// priority-ordered queue of routed tasks plus a runner goroutine that
// submits them in batches. Per-executor lanes keep one backlogged executor
// (a blocking Submit/SubmitBatch into a full input queue) from
// head-of-line-blocking dispatch to every other executor.
type lane struct {
	ex    executor.Executor
	queue *fair.Queue[*pendingLaunch]
	// queued counts tasks routed to this lane but not yet submitted — load
	// the executor's own Outstanding cannot see yet. Capacity-aware
	// scheduling seeds each cycle's sched.Frozen snapshot with it.
	queued atomic.Int64
}

// maxQueuedPriority peeks the highest priority currently queued (0 when
// empty) — the lane-backlog urgency signal surfaced through sched.Load.
func (l *lane) maxQueuedPriority() int {
	return l.queue.PeekMax(func(pl *pendingLaunch) int { return pl.priority })
}

// dispatcher is the DFK's routing pump: it drains ready tasks from the
// sharded routing queue and asks the scheduler for a target executor per
// task; the target's lane runner does the actual submission. Replaces the
// seed's inline launch-on-the-callback-goroutine path.
func (d *DFK) dispatcher() {
	defer d.dispatchWG.Done()
	for {
		batch, ok := d.queue.Take(d.batchMax)
		if !ok {
			return
		}
		route := d.newRouter()
		for _, pl := range batch {
			if pl.attempt.Done() {
				continue
			}
			if !pl.rec.Enter(pl.gen) {
				// The task concluded and its record was recycled while this
				// entry sat in the routing queue; nothing left to route.
				continue
			}
			ex, err := route.pick(pl)
			if err != nil {
				// Every admissible breaker open means park, not fail: the
				// attempt concludes with the overload error, which the health
				// plane classifies and re-dispatches after backoff with a
				// fresh timeout clock. Any other error fails the task first,
				// then completes the attempt: the done hook stops the timeout
				// timer, and attemptDone's terminal guard keeps it from
				// re-processing the failure.
				if !errors.Is(err, health.ErrNoHealthyExecutor) {
					d.failTask(pl.rec, err)
				}
				pl.rec.Exit()
				_ = pl.attempt.SetError(err)
				continue
			}
			pl.rec.SetExecutor(ex.Label())
			pl.rec.Exit()
			l := d.lanes[ex.Label()]
			l.queued.Add(1)
			l.queue.Push(pl.tenant, pl.weight, pl)
		}
		d.queue.PutBatch(batch)
	}
}

// laneRunner drains one executor's lane, submitting each drained batch via
// the executor's native BatchSubmitter when it has one.
func (d *DFK) laneRunner(l *lane) {
	defer d.laneWG.Done()
	// Per-runner scratch, reused across batches. Safe because both
	// BatchSubmitter implementations consume msgs synchronously (htex copies
	// each TaskMsg into its inflight map, threadpool into channel items) and
	// the per-task Submit fallback passes TaskMsg by value.
	var msgs []serialize.TaskMsg
	var live []*pendingLaunch
	var launchKeys []int64
	for {
		batch, ok := l.queue.Take(d.batchMax)
		if !ok {
			return
		}
		// Chaos: a delayed drain models a stalled lane runner — queued tasks
		// keep aging against their attempt timers, which is the contract
		// enqueueAttempt promises (the clock runs while they queue).
		chaos.Sleep(chaos.PointLaneDelay, l.ex.Label())
		msgs = msgs[:0]
		live = live[:0]
		launchKeys = launchKeys[:0]
		for _, pl := range batch {
			if pl.attempt.Done() {
				// The attempt timed out while queued; its retry (if any)
				// is a separate queue entry. Best-effort skip — if the
				// timer wins the race after this check, the stale attempt
				// is still submitted as a ghost: its remote result
				// reconciles by wire id, the relay below is a no-op on
				// the already-failed attempt future, and its launch
				// transition interleaves harmlessly with the retry's (a
				// same-state move is a silent no-op; a terminal task
				// refuses it and failTask loses to the settled outcome).
				continue
			}
			// Chaos: an injected submission failure concludes this attempt
			// before it crosses the executor boundary; attemptDone retries it
			// through the scheduler exactly as a real submit error would.
			if err := chaos.Fail(chaos.PointSubmitFail, l.ex.Label()); err != nil {
				_ = pl.attempt.SetError(err)
				continue
			}
			if !pl.rec.Enter(pl.gen) {
				// Record already recycled (task concluded elsewhere with the
				// attempt settled); drop the stale entry.
				continue
			}
			if err := d.transition(pl.rec, task.Launched); err != nil {
				d.failTask(pl.rec, err)
				pl.rec.Exit()
				_ = pl.attempt.SetError(err) // stop the timer, see dispatcher
				continue
			}
			// First launch crossing the executor boundary: charge the durable
			// attempt budget (batched below, one log acquisition per drain).
			// Later attempts were already charged by their Retry records, and
			// a ghost resubmission of a dead attempt is skipped by the Done
			// check above.
			if pl.walKey != 0 && pl.walAttempt == 1 {
				launchKeys = append(launchKeys, pl.walKey)
			}
			pl.rec.Exit()
			m := serialize.TaskMsg{
				ID: pl.wireID, App: pl.app.name, Args: pl.args, Kwargs: pl.kwargs,
				Priority: pl.priority, Tenant: pl.tenant, Weight: pl.weight,
			}
			// Ride the encode-once payload onto the wire message — remote
			// executors frame its bytes verbatim, in-process ones decode
			// their defensive copy from it — holding one reference for the
			// executor leg, released by the relay when the executor future
			// settles. The attempt's own reference (still held here) makes
			// the Retain safe: the payload cannot have been recycled.
			m.AttachPayload(pl.payload.Retain())
			msgs = append(msgs, m)
			live = append(live, pl)
		}
		if len(launchKeys) > 0 {
			if err := d.wal.LaunchBatch(launchKeys); err != nil {
				d.emitWAL(0, "launch", err)
			}
		}
		if len(msgs) > 0 {
			if bs, ok := l.ex.(executor.BatchSubmitter); ok {
				futs := bs.SubmitBatch(msgs)
				for i, pl := range live {
					futs[i].SetDoneHook(&pl.relay)
				}
			} else {
				for i, m := range msgs {
					l.ex.Submit(m).SetDoneHook(&live[i].relay)
				}
			}
		}
		// Submitted work is visible in the executor's Outstanding now;
		// dropping the lane counter after submission means the worst case
		// is a brief double count, never a blind spot.
		l.queued.Add(-int64(len(batch)))
		l.queue.PutBatch(batch)
	}
}

// dispatchFirst installs a task's payload (the record's reference, released
// at retirement) and enqueues the task's first attempt in this process, which
// takes its own. walAttempt is 1 for a fresh task, one past the pre-crash
// launches for a resumed one.
func (d *DFK) dispatchFirst(rec *task.Record, a *App, args []any, kwargs map[string]any, payload *serialize.Payload, walAttempt int) {
	rec.SetPayload(payload)
	pl := &pendingLaunch{
		d: d, rec: rec, gen: rec.Gen(), app: a, args: args, kwargs: kwargs,
		payload: payload.Retain(),
		wireID:  rec.ID, priority: rec.Priority(),
		tenant: rec.Tenant(), weight: rec.TenantWeight(),
		walKey: rec.WALKey(), walAttempt: walAttempt,
	}
	if d.schedUsesDigest {
		pl.digest = payload.ArgsHash()
	}
	d.logRetry(pl)
	d.enqueueAttempt(pl)
}

// retry builds the attempt after pl: a fresh object (the old one may still
// sit in a lane queue and must stay recognizable as dead) under a fresh wire
// id from the task id sequence (the old attempt may still run remotely under
// its id). It shares the encode-once payload under its own reference and
// carries the health-plane state forward.
func (pl *pendingLaunch) retry() *pendingLaunch {
	next := &pendingLaunch{
		d: pl.d, rec: pl.rec, gen: pl.gen, app: pl.app,
		args: pl.args, kwargs: pl.kwargs,
		payload: pl.payload.Retain(),
		wireID:  pl.d.graph.NextID(), priority: pl.priority,
		tenant: pl.tenant, weight: pl.weight, digest: pl.digest,
		walKey: pl.walKey, walAttempt: pl.walAttempt + 1,
		kills: pl.kills, free: pl.free,
	}
	pl.d.logRetry(next)
	return next
}

// logRetry durably charges every attempt past a task's first — free retries
// and resumed tasks included — before it can run, so the log's launch count
// never trails the real launches. The lane runner logs attempt 1.
func (d *DFK) logRetry(pl *pendingLaunch) {
	if pl.walKey == 0 || pl.walAttempt == 1 {
		return
	}
	if err := d.wal.Retry(pl.walKey, pl.walAttempt); err != nil {
		d.emitWAL(pl.rec.ID, "retry", err)
	}
}

// enqueueAttempt arms one execution attempt — its outcome future, the
// timeout timer against it, and the retry-or-finish hook — and hands it to
// the routing queue. Arming the timer here, not after submission, is what
// makes the timeout contract hold for tasks stuck behind a backlogged lane:
// the clock runs while they queue. The per-call WithTimeout/WithDeadline
// options override Config.TaskTimeout; a deadline bounds each attempt by the
// wall-clock time remaining.
func (d *DFK) enqueueAttempt(pl *pendingLaunch) {
	pl.relay.pl = pl
	pl.rec.SetAttempt(&pl.attempt, pl.wireID)
	dur := d.cfg.TaskTimeout
	if t := pl.rec.Timeout(); t > 0 {
		dur = t
	}
	if dl := pl.rec.Deadline(); !dl.IsZero() {
		rem := time.Until(dl)
		if rem <= 0 {
			// The deadline has already passed — first attempts and retries
			// alike fail here, synchronously, rather than racing a zero
			// timer against dispatch (a fast executor could otherwise
			// complete work past its deadline). failTask before settling
			// the attempt keeps attemptDone's terminal guard from retrying.
			err := fmt.Errorf("%w: deadline %v already passed", ErrTimeout, dl.Format(time.RFC3339Nano))
			d.failTask(pl.rec, err)
			pl.attempt.SetDoneHook(pl)
			_ = pl.attempt.SetError(err)
			return
		}
		if dur <= 0 || rem < dur {
			dur = rem
		}
	}
	if dur > 0 {
		pl.timer = time.AfterFunc(dur, func() {
			_ = pl.attempt.SetError(fmt.Errorf("%w after %v", ErrTimeout, dur))
		})
	}
	pl.attempt.SetDoneHook(pl)
	d.queue.Push(pl.wireID, pl)
}

// attemptDone handles one attempt's outcome: a success completes the task; a
// failure tells the executor to drop the attempt's ghost, then goes to the
// health plane, which retries through the scheduler while budget remains
// (§4.1: "Parsl is able to retry the task by resubmitting it to an
// executor") or fails the task. Runs inside the caller's Enter/Exit window,
// so the record is valid throughout even if this call retires it.
func (d *DFK) attemptDone(pl *pendingLaunch, af *future.Future) {
	if pl.rec.State().Terminal() {
		// The task already failed on a dispatch-side path (which completes
		// the attempt after failTask); nothing left to do.
		return
	}
	label := pl.rec.Executor()
	v, err := af.Result()
	if err == nil {
		d.hp.recordSuccess(label)
		d.completeTask(pl.rec, v)
		return
	}
	// Tell the executor to drop the attempt. A no-op for errors it reported
	// itself, but a timeout leaves the attempt live executor-side — and if its frame was lost on the wire
	// the executor would otherwise carry the ghost entry, and its inflated
	// Outstanding() load signal, forever. An unrouted attempt has no label
	// and so no Canceler.
	if c, ok := d.executors[label].(executor.Canceler); ok {
		c.Cancel(pl.wireID)
	}
	d.hp.attemptFailed(pl, err)
}
