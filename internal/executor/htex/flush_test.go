package htex

import (
	"slices"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/mq"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// TestIdleRoundTripIsNotTimerBound pins the timer-free idle path: on a
// zero-latency network one serial task costs tens of microseconds, so a
// result must leave the manager as soon as it is ready rather than on a
// periodic flush tick.
func TestIdleRoundTripIsNotTimerBound(t *testing.T) {
	e := newHTEX(t, 1, 1, nil)
	roundTrip := func(id int64) time.Duration {
		start := time.Now()
		if v, err := e.Submit(serialize.TaskMsg{ID: id, App: "echo", Args: []any{1}}).Result(); err != nil || v != 1 {
			t.Fatalf("task %d: %v, %v", id, v, err)
		}
		return time.Since(start)
	}
	for i := int64(0); i < 10; i++ {
		roundTrip(i) // warm the goroutines and frame buffers
	}
	rtts := make([]time.Duration, 100)
	for i := range rtts {
		rtts[i] = roundTrip(int64(100 + i))
	}
	slices.Sort(rtts)
	if median := rtts[len(rtts)/2]; median >= time.Millisecond {
		t.Fatalf("median serial round trip %v ≥ 1ms", median)
	}
}

// TestResultBurstRespectsResultFlush drives one manager agent from a bare
// router standing in for the interchange. The first RESULTS frame is held up
// so the rest of the burst piles behind it: every result must still arrive
// exactly once, batched, and no frame may carry more than ResultFlush.
func TestResultBurstRespectsResultFlush(t *testing.T) {
	const (
		id    = "mgr-burst"
		tasks = 64
		flush = 4
	)
	restore := chaos.Enable(chaos.New(1, chaos.Plan{{
		Point: chaos.PointMgrResults, Act: chaos.ActDelay, Prob: 1, Max: 1,
		Delay: 30 * time.Millisecond, Match: id,
	}}))
	defer restore()

	tr := simnet.NewNetwork(0)
	hub, err := mq.NewRouter(tr, "ix-burst")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	cfg := ManagerConfig{Workers: 4, Prefetch: 4, ResultFlush: flush, HeartbeatPeriod: time.Minute}
	mgr, err := StartAgent(tr, hub.Addr(), id, cfg, func(_ int, w serialize.WireTask) (serialize.ResultMsg, error) {
		return serialize.ResultMsg{ID: w.ID, Value: w.ID}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { mgr.Stop(); mgr.Wait() }()

	l := link{point: chaos.PointIxTasks, label: id, router: hub, peer: id}
	next := func() mq.Message {
		t.Helper()
		select {
		case del := <-hub.Incoming():
			return del.Msg
		case <-time.After(5 * time.Second):
			t.Fatal("timeout waiting for the manager")
			return nil
		}
	}
	for string(next()[0]) != frameReg { // the manager registers first
	}
	batch := make([]serialize.WireTask, tasks)
	for i := range batch {
		batch[i] = serialize.WireTask{ID: int64(i + 1), App: "noop"}
	}
	if err := l.sendTasks(frameTasks, batch); err != nil {
		t.Fatal(err)
	}

	seen := make(map[int64]bool, tasks)
	frames := 0
	for len(seen) < tasks {
		msg := next()
		if string(msg[0]) != frameResults {
			continue
		}
		rs, err := serialize.ParseResults(msg[1])
		if err != nil {
			t.Fatalf("undecodable RESULTS frame: %v", err)
		}
		frames++
		if len(rs) > flush {
			t.Fatalf("RESULTS frame carries %d results, ResultFlush is %d", len(rs), flush)
		}
		for _, r := range rs {
			if seen[r.ID] {
				t.Fatalf("result %d delivered twice", r.ID)
			}
			seen[r.ID] = true
		}
	}
	if frames >= tasks {
		t.Fatalf("%d results took %d frames: nothing was batched", tasks, frames)
	}
	// Nothing may trail the burst: a late duplicate would surface here.
	deadline := time.After(50 * time.Millisecond)
	for {
		select {
		case del := <-hub.Incoming():
			if string(del.Msg[0]) == frameResults {
				t.Fatalf("RESULTS frame after all %d results arrived", tasks)
			}
		case <-deadline:
			return
		}
	}
}
