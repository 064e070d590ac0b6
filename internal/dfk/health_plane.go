package dfk

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/health"
	"repro/internal/monitor"
	"repro/internal/task"
)

// healthPlane is the DFK's one failure path, the DFK side of the self-healing
// retry plane (internal/health): it classifies every failed attempt, paces
// retries with per-class deterministic backoff, tracks one circuit breaker
// per executor, and quarantines poison tasks. With Config.Health nil it is
// the flat plane: every class charges the budget and re-dispatches at once
// with failover, there are no breakers (a missing breaker counts as
// routable), no quarantine, and no events.
type healthPlane struct {
	d *DFK
	// mon receives KindHealth events: the DFK's sink, or monitor.Nop for
	// the flat plane.
	mon      monitor.Sink
	policies [health.NumClasses]health.Policy
	breakers map[string]*health.Breaker
	seed     int64
	// quarantineAfter is the distinct-manager kill count that quarantines a
	// task; 0 disables quarantine.
	quarantineAfter int
	pinnedFailFast  bool
	// backoffs counts scheduled backoffs for monitor rate-limiting.
	backoffs atomic.Int64
}

// newHealthPlane builds the plane for opts; nil opts builds the flat plane.
func newHealthPlane(d *DFK, opts *health.Options) *healthPlane {
	hp := &healthPlane{d: d, mon: monitor.Nop{}}
	if opts == nil {
		for c := range hp.policies {
			hp.policies[c] = health.Policy{Charge: true, Failover: true}
		}
		return hp
	}
	hp.mon = d.mon
	hp.policies = opts.PolicyTable()
	hp.breakers = make(map[string]*health.Breaker, len(d.execList))
	hp.seed = opts.Seed
	hp.quarantineAfter = opts.QuarantineAfter
	hp.pinnedFailFast = opts.PinnedFailFast
	if hp.seed == 0 {
		hp.seed = d.cfg.Seed
	}
	switch {
	case hp.quarantineAfter == 0:
		hp.quarantineAfter = 3
	case hp.quarantineAfter < 0:
		hp.quarantineAfter = 0
	}
	for _, ex := range d.execList {
		b := health.NewBreaker(opts.Breaker)
		label := ex.Label()
		b.SetTransitionHook(func(from, to health.BreakerState) {
			hp.emitTransition(label, from, to)
		})
		hp.breakers[label] = b
	}
	return hp
}

// state reports one executor's breaker position for sched.Load.
func (hp *healthPlane) state(label string) string {
	b := hp.breakers[label]
	if b == nil {
		return ""
	}
	return b.State().String()
}

// routable reports whether an executor's breaker currently admits work; an
// executor without a breaker always does.
func (hp *healthPlane) routable(label string) bool {
	b := hp.breakers[label]
	return b == nil || b.Routable()
}

// filterRoutable narrows a candidate set to executors whose breakers admit
// work. The all-healthy case — the steady state — returns the input slice
// untouched, so routing allocates nothing until a breaker actually opens.
// ok is false when no candidate is admissible.
func (hp *healthPlane) filterRoutable(candidates []executor.Executor) (out []executor.Executor, ok bool) {
	for i, c := range candidates {
		if hp.routable(c.Label()) {
			if out != nil {
				out = append(out, c)
			}
			continue
		}
		if out == nil {
			// First rejection: copy the admissible prefix.
			out = make([]executor.Executor, i, len(candidates))
			copy(out, candidates[:i])
		}
	}
	if out == nil {
		return candidates, true
	}
	return out, len(out) > 0
}

// acquire reserves a probe slot on the picked executor (no-op outside
// half-open).
func (hp *healthPlane) acquire(label string) {
	if b := hp.breakers[label]; b != nil {
		b.Acquire()
	}
}

// recordSuccess feeds a completed attempt into its executor's breaker.
func (hp *healthPlane) recordSuccess(label string) {
	if b := hp.breakers[label]; b != nil {
		b.Record(true)
	}
}

// attemptFailed handles every failed attempt: classify the failure, update
// the executor's breaker, check the poison-kill history, charge (or forgive)
// the retry budget per the class policy, and schedule the next attempt after
// deterministic backoff. Runs inside the caller's Enter/Exit window on
// pl.rec.
func (hp *healthPlane) attemptFailed(pl *pendingLaunch, err error) {
	d := hp.d
	cls := health.Classify(err)
	if errors.Is(err, ErrTimeout) {
		// The timeout sentinel lives in this package; pre-classify before
		// the taxonomy's chain walk (which cannot import it).
		cls = health.ClassTimeout
	}
	label := pl.rec.Executor()
	// Breaker bookkeeping: executor-fault classes count against the breaker;
	// a task fault is a delivered verdict — evidence of executor health, not
	// sickness. Overload never indicts anyone (no executor ran the attempt).
	if label != "" {
		if b := hp.breakers[label]; b != nil {
			if cls.ExecutorFault() {
				b.Record(false)
			} else if cls == health.ClassTaskFault {
				b.Record(true)
			}
		}
	}
	// Poison bookkeeping: a lost manager joins the attempt chain's distinct-
	// kill history, and crossing the quarantine bar fails the task permanently
	// with the full history — before any retry-budget consideration, because
	// re-dispatching a decapitating task is never worth a budget check.
	if cls == health.ClassExecutorLost && hp.quarantineAfter > 0 {
		key := ""
		var le *executor.LostError
		if errors.As(err, &le) {
			key = le.Manager
			if key == "" {
				key = le.Detail
			}
		}
		if key != "" && !slices.Contains(pl.kills, key) {
			pl.kills = append(pl.kills, key)
		}
		if len(pl.kills) >= hp.quarantineAfter {
			qerr := &health.QuarantineError{TaskID: pl.rec.ID, Kills: pl.kills, Last: err}
			hp.emitQuarantine(pl, qerr)
			d.failTask(pl.rec, qerr)
			return
		}
	}
	pol := hp.policies[cls]
	charge := pol.Charge
	if !charge {
		maxFree := pol.MaxFree
		if maxFree > 255 {
			maxFree = 255 // free counters are uint8; saturate, never wrap
		}
		if int(pl.free[cls]) < maxFree {
			pl.free[cls]++
		} else {
			charge = true // free allowance exhausted; back to the budget
		}
	}
	if charge && pl.rec.IncAttempts() > pl.rec.MaxRetries() {
		d.failTask(pl.rec, err)
		return
	}
	// A launched attempt moves to Retrying. An attempt that timed out while
	// still queued is still Pending: no state change is legal (or needed), it
	// simply re-enters the queue, and the monitor event says so rather than
	// claiming a Retrying transition that never happens.
	if st := pl.rec.State(); st == task.Pending {
		d.emitState(pl.rec, st, "requeued")
	} else if d.transition(pl.rec, task.Retrying) != nil {
		d.failTask(pl.rec, err)
		return
	}
	next := pl.retry()
	if !pol.Failover && label != "" {
		// Retry affinity: a non-failover class prefers the executor it failed
		// on, as long as its breaker keeps admitting (router honors stick).
		next.stick = label
	}
	delay := pol.Delay(hp.seed, pl.rec.ID, next.walAttempt)
	hp.emitBackoff(pl, cls, next.walAttempt, delay)
	if delay <= 0 {
		// Zero-backoff classes (timeout) re-enter dispatch immediately; the
		// attempt clock re-arms in enqueueAttempt either way.
		d.enqueueAttempt(next)
		return
	}
	// Park the attempt until its backoff expires. Its timeout clock starts
	// at the re-launch (enqueueAttempt arms it), so backoff time is never
	// charged against the attempt. Shutdown needs no drain: a parked task
	// holds the task waitgroup until it concludes, and one that concludes
	// while parked is dropped at release.
	time.AfterFunc(delay, func() { hp.release(next) })
}

// release re-enters one parked attempt, revalidating the record first: the
// task may have concluded while parked (cancellation, a racing terminal
// path), or the record may have been recycled entirely.
func (hp *healthPlane) release(pl *pendingLaunch) {
	if !pl.rec.Enter(pl.gen) {
		pl.payload.Release()
		return
	}
	if pl.rec.State().Terminal() {
		pl.payload.Release()
	} else {
		hp.d.enqueueAttempt(pl)
	}
	pl.rec.Exit()
}

// emitTransition records a breaker state change. Transitions are rare by
// construction (bounded by OpenFor cycles), so they are never rate-limited.
func (hp *healthPlane) emitTransition(label string, from, to health.BreakerState) {
	hp.mon.Emit(monitor.Event{
		Kind:     monitor.KindHealth,
		At:       time.Now(),
		Executor: label,
		From:     from.String(),
		To:       to.String(),
		Detail:   "breaker",
	})
}

// emitBackoff records a scheduled backoff, rate-limited like graph events:
// the first 16 per run and every 256th after, so small runs observe the
// plane working and kill-storms don't pay a monitor event per retry.
func (hp *healthPlane) emitBackoff(pl *pendingLaunch, cls health.Class, attempt int, delay time.Duration) {
	if silent(hp.mon) {
		return
	}
	n := hp.backoffs.Add(1)
	if n > 16 && n%256 != 0 {
		return
	}
	hp.mon.Emit(monitor.Event{
		Kind:     monitor.KindHealth,
		At:       time.Now(),
		TaskID:   pl.rec.ID,
		App:      pl.app.name,
		Executor: pl.rec.Executor(),
		Detail:   fmt.Sprintf("backoff class=%s attempt=%d", cls, attempt),
		Duration: delay,
	})
}

// emitQuarantine records a poison-task quarantine (never rate-limited; each
// is a permanent task failure).
func (hp *healthPlane) emitQuarantine(pl *pendingLaunch, qerr *health.QuarantineError) {
	hp.mon.Emit(monitor.Event{
		Kind:     monitor.KindHealth,
		At:       time.Now(),
		TaskID:   pl.rec.ID,
		App:      pl.app.name,
		Executor: pl.rec.Executor(),
		Detail:   "quarantine: " + qerr.Error(),
	})
}
