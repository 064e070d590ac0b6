// Package health is the DFK's self-healing retry plane: a typed failure
// taxonomy with per-class retry policies, deterministic jittered backoff,
// per-executor circuit breakers, and poison-task quarantine.
//
// The paper's fault story (§4.1, §4.3.1) is "retry by resubmitting to an
// executor" — a flat budget that re-enters dispatch immediately and treats a
// bit-flipped frame, a lost manager, a task panic, and a timeout identically.
// This package classifies the failure instead: each class carries its own
// policy (does the retry charge the budget, how does it back off, may it
// fail over to another executor), breakers route work away from executors
// whose recent failure rate trips a rolling window, and a task whose attempts
// keep killing managers is quarantined rather than allowed to decapitate the
// fleet.
//
// Everything here is deterministic under a seed: backoff jitter is a pure
// function of (seed, task id, attempt), so a failing chaos seed replays the
// identical retry schedule.
package health

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
)

// Class is one failure category, derived at attemptDone from the error chain.
type Class uint8

// The failure classes. ClassUnknown is the fallback for errors the taxonomy
// does not recognize; its policy mirrors the pre-health retry behavior
// (charge the budget, no affinity).
const (
	// ClassUnknown is any error the taxonomy cannot place.
	ClassUnknown Class = iota
	// ClassTransientWire is a frame-level fault (drop, corruption, NACK
	// repair, injected submit failure): the executor is fine, the attempt
	// just never made it. Retries are cheap, uncharged, and sticky.
	ClassTransientWire
	// ClassExecutorLost is lost execution infrastructure (manager death,
	// worker-pool loss): retriable by the paper's contract (§4.3.1), charged
	// against the executor's breaker, and counted toward quarantine.
	ClassExecutorLost
	// ClassTaskFault is the task's own failure — an app error or panic. The
	// executor did its job; retrying elsewhere may help, hammering the same
	// budget-free path never does, so these charge the retry budget.
	ClassTaskFault
	// ClassTimeout is an attempt that exceeded its clock (dfk.ErrTimeout);
	// the DFK classifies it before consulting this package (the sentinel
	// lives in dfk, which this package cannot import).
	ClassTimeout
	// ClassOverload is backpressure: no healthy executor was admissible for
	// the attempt (every breaker open). Uncharged with a generous free cap,
	// so parked tasks survive an open window without burning budget.
	ClassOverload
	// NumClasses sizes per-class arrays.
	NumClasses
)

var classNames = [NumClasses]string{
	ClassUnknown:       "unknown",
	ClassTransientWire: "transient-wire",
	ClassExecutorLost:  "executor-lost",
	ClassTaskFault:     "task-fault",
	ClassTimeout:       "timeout",
	ClassOverload:      "overload",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ParseClass resolves a class name (as used by chaos.Rule.Class and carried
// inside flattened remote errors) back to its Class.
func ParseClass(name string) (Class, bool) {
	for c, n := range classNames {
		if n == name {
			return Class(c), true
		}
	}
	return ClassUnknown, false
}

// ExecutorFault reports whether a failure of this class indicts the executor
// it ran on — the classes a circuit breaker counts as failures. Task faults
// are explicitly the opposite: the executor delivered a verdict, which is
// evidence of health, not sickness.
func (c Class) ExecutorFault() bool {
	switch c {
	case ClassTransientWire, ClassExecutorLost, ClassTimeout:
		return true
	}
	return false
}

// ErrNoHealthyExecutor is returned by routing when every admissible
// executor's breaker is open. The DFK converts it into an attempt-level park:
// the attempt concludes, classifies as ClassOverload, and re-enters dispatch
// after backoff with a fresh timeout clock.
var ErrNoHealthyExecutor = errors.New("health: no healthy executor admissible")

// Policy is one class's retry policy.
type Policy struct {
	// Charge makes retries of this class consume the task's retry budget
	// (Config.Retries / WithRetries), exactly as the pre-health path did.
	Charge bool
	// MaxFree bounds uncharged retries per task for this class when Charge
	// is false; once exhausted, further failures of the class charge the
	// budget — infrastructure flakiness is forgiven, but not forever.
	MaxFree int
	// Base is the backoff before the first retry; each further retry of any
	// class doubles it (the exponent is the task's launch count, so mixed-
	// class failure sequences still grow monotonically). Zero means re-enter
	// dispatch immediately.
	Base time.Duration
	// Max caps the backoff curve (0 = uncapped).
	Max time.Duration
	// Failover marks retries of this class eligible to re-route to a
	// different executor. When false the retry prefers the executor the
	// attempt failed on (retry affinity) as long as its breaker admits it —
	// right for wire glitches, wrong for lost managers.
	Failover bool
}

// DefaultPolicies is the per-class policy table; Options.Policies overrides
// individual entries.
func DefaultPolicies() [NumClasses]Policy {
	var p [NumClasses]Policy
	p[ClassUnknown] = Policy{Charge: true, Base: 5 * time.Millisecond, Max: 200 * time.Millisecond, Failover: true}
	p[ClassTransientWire] = Policy{MaxFree: 8, Base: 2 * time.Millisecond, Max: 100 * time.Millisecond, Failover: false}
	p[ClassExecutorLost] = Policy{MaxFree: 6, Base: 10 * time.Millisecond, Max: 500 * time.Millisecond, Failover: true}
	p[ClassTaskFault] = Policy{Charge: true, Base: 5 * time.Millisecond, Max: 200 * time.Millisecond, Failover: true}
	p[ClassTimeout] = Policy{Charge: true, Failover: true} // the attempt already spent its clock; relaunch now
	p[ClassOverload] = Policy{MaxFree: 64, Base: 5 * time.Millisecond, Max: 250 * time.Millisecond, Failover: true}
	return p
}

// splitmix64 is the SplitMix64 finalizer (same mixer the chaos plane rolls
// with): full-avalanche, so sequential task ids and attempt counters still
// jitter uniformly.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Delay computes the backoff before launching `attempt` (the 1-based launch
// number; the first retry is attempt 2). The curve is Base doubled per prior
// retry, capped at Max, with deterministic jitter in [d/2, d): a pure
// function of (seed, taskID, attempt), so one seed always yields one
// schedule — reproducible under the chaos seed, yet decorrelated across
// tasks so a burst of same-instant failures does not retry in lockstep.
func (p Policy) Delay(seed, taskID int64, attempt int) time.Duration {
	if p.Base <= 0 {
		return 0
	}
	d := p.Base
	for i := 2; i < attempt; i++ {
		d *= 2
		if p.Max > 0 && d >= p.Max {
			break
		}
	}
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	if h := d / 2; h > 0 {
		x := splitmix64(uint64(seed) ^ splitmix64(uint64(taskID)) ^ splitmix64(uint64(attempt))<<1)
		frac := float64(x>>11) / (1 << 53)
		d = h + time.Duration(frac*float64(h))
	}
	return d
}

// classMarker is how an injected class fault survives the wire: remote
// executors flatten errors to strings, so ClassError embeds this marker in
// its message and Classify parses it back out of RemoteError.
const classMarkerPrefix = "[class="

// classFromMsg extracts a class marker from a flattened error message.
func classFromMsg(msg string) (Class, bool) {
	i := strings.Index(msg, classMarkerPrefix)
	if i < 0 {
		return ClassUnknown, false
	}
	rest := msg[i+len(classMarkerPrefix):]
	j := strings.IndexByte(rest, ']')
	if j < 0 {
		return ClassUnknown, false
	}
	return ParseClass(rest[:j])
}

// Classify places an attempt error in the taxonomy. Timeouts are the one
// class the caller must pre-classify (dfk.ErrTimeout lives upstream of this
// package); everything else derives from the error chain here.
func Classify(err error) Class {
	if err == nil {
		return ClassUnknown
	}
	var ce *chaos.ClassError
	if errors.As(err, &ce) {
		if c, ok := ParseClass(ce.Class); ok {
			return c
		}
		return ClassUnknown
	}
	var le *executor.LostError
	if errors.As(err, &le) {
		return ClassExecutorLost
	}
	var re *executor.RemoteError
	if errors.As(err, &re) {
		// A chaos class fault injected inside a remote worker crossed the
		// wire flattened to a string; recover the class from its marker.
		if c, ok := classFromMsg(re.Msg); ok {
			return c
		}
		return ClassTaskFault
	}
	if errors.Is(err, ErrNoHealthyExecutor) {
		return ClassOverload
	}
	if errors.Is(err, chaos.ErrInjected) {
		// A plain ActFail injection models a submit-boundary wire fault.
		return ClassTransientWire
	}
	return ClassUnknown
}

// QuarantineError fails a poison task permanently: its attempts killed
// Options.QuarantineAfter distinct managers, and re-dispatching it would keep
// eating the fleet. Kills is the distinct-manager kill history, in order.
type QuarantineError struct {
	TaskID int64
	Kills  []string
	Last   error
}

// Error implements error.
func (e *QuarantineError) Error() string {
	return fmt.Sprintf("health: task %d quarantined after killing %d managers (%s): last failure: %v",
		e.TaskID, len(e.Kills), strings.Join(e.Kills, ", "), e.Last)
}

// Unwrap exposes the final attempt's failure.
func (e *QuarantineError) Unwrap() error { return e.Last }

// Options configures the plane (dfk.Config.Health). A nil *Options selects
// the DFK's flat plane (every class charged, no backoff, breakers or
// quarantine); the zero value enables the full plane with defaults.
type Options struct {
	// Seed drives backoff jitter (0 = the DFK's Config.Seed).
	Seed int64
	// Policies overrides DefaultPolicies per class.
	Policies map[Class]Policy
	// Breaker tunes the per-executor circuit breakers.
	Breaker BreakerConfig
	// QuarantineAfter is how many distinct managers a task's attempts may
	// kill before it is quarantined (0 = 3; negative disables quarantine).
	QuarantineAfter int
	// PinnedFailFast makes a pinned (WithExecutor) task fail immediately
	// when its executor's breaker rejects it. The default parks the attempt:
	// it backs off under the overload policy and re-probes until the breaker
	// half-opens or the free overload budget runs out.
	PinnedFailFast bool
}

// PolicyTable resolves the effective per-class policy table.
func (o *Options) PolicyTable() [NumClasses]Policy {
	t := DefaultPolicies()
	for c, p := range o.Policies {
		if int(c) < len(t) {
			t[c] = p
		}
	}
	return t
}
