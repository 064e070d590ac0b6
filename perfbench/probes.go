package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/executor/htex"
	"repro/internal/executor/threadpool"
	"repro/internal/mq"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// Layer-floor probe sizes. Each network probe takes enough sequential round
// trips for a p99 with ten samples beyond it.
const (
	probeWarmup    = 20
	probeRTTs      = 1000
	probeTPTasks   = 5000
	probeEncodes   = 200 // timed groups
	probeEncodeOps = 100 // EncodeArgs calls per timed group
	modelledRTT    = 70 * time.Microsecond
)

// floors holds the layer-floor probes, each measured in isolation on the
// workload's network model: one layer at a time, one operation in flight.
type floors struct {
	simnetRTT, mqRTT, htexRTT, tpRTT, encode *reservoir
	payloadBytes                             int
}

func probeFloors(w workload, seed int64) (floors, error) {
	var f floors
	var err error
	if f.simnetRTT, err = probeSimnet(seed); err != nil {
		return f, err
	}
	if f.mqRTT, err = probeMQ(seed); err != nil {
		return f, err
	}
	if f.htexRTT, err = probeHTEX(w, seed); err != nil {
		return f, err
	}
	if f.tpRTT, err = probeThreadpool(seed); err != nil {
		return f, err
	}
	f.encode, f.payloadBytes, err = probeEncode(w.args(), seed)
	return f, err
}

// probeSimnet times a 64-byte ping-pong over a raw simnet.Midway connection.
func probeSimnet(seed int64) (*reservoir, error) {
	nw := simnet.Midway()
	l, err := nw.Listen("")
	if err != nil {
		return nil, fmt.Errorf("simnet probe: %w", err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := nw.Dial(l.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("simnet probe: %w", err)
	}
	r := newReservoir(seed)
	buf := make([]byte, 64)
	for i := 0; i < probeWarmup+probeRTTs; i++ {
		t0 := time.Now()
		if _, err := c.Write(buf); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("simnet probe: %w", err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("simnet probe: %w", err)
		}
		if i >= probeWarmup {
			r.add(time.Since(t0))
		}
	}
	_ = c.Close()
	wg.Wait()
	return r, nil
}

// probeMQ times a Dealer→Router→Dealer echo over simnet.Midway.
func probeMQ(seed int64) (*reservoir, error) {
	nw := simnet.Midway()
	router, err := mq.NewRouter(nw, "")
	if err != nil {
		return nil, fmt.Errorf("mq probe: %w", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case del := <-router.Incoming():
				_ = router.SendTo(del.From, del.Msg)
			}
		}
	}()
	defer func() {
		_ = router.Close()
		close(stop)
		wg.Wait()
	}()
	dealer, err := mq.DialDealer(nw, router.Addr(), "probe")
	if err != nil {
		return nil, fmt.Errorf("mq probe: %w", err)
	}
	defer dealer.Close()
	r := newReservoir(seed)
	msg := mq.Message{[]byte("PING"), make([]byte, 64)}
	for i := 0; i < probeWarmup+probeRTTs; i++ {
		t0 := time.Now()
		if err := dealer.Send(msg); err != nil {
			return nil, fmt.Errorf("mq probe: %w", err)
		}
		if _, err := dealer.Recv(); err != nil {
			return nil, fmt.Errorf("mq probe: %w", err)
		}
		if i >= probeWarmup {
			r.add(time.Since(t0))
		}
	}
	return r, nil
}

// probeHTEX times direct htex.Executor.Submit to settle, one no-op at a
// time, on a fresh deployment of the workload's HTEX configuration.
func probeHTEX(w workload, seed int64) (*reservoir, error) {
	reg := serialize.NewRegistry()
	if err := reg.Register("noop", noop); err != nil {
		return nil, fmt.Errorf("htex probe: %w", err)
	}
	ex := htex.New(w.htexConfig(simnet.Midway(), reg))
	if err := ex.Start(); err != nil {
		return nil, fmt.Errorf("htex probe: %w", err)
	}
	defer ex.Shutdown()
	r := newReservoir(seed)
	for i := 0; i < probeWarmup+probeRTTs; i++ {
		t0 := time.Now()
		_, err := ex.Submit(serialize.TaskMsg{ID: int64(i), App: "noop"}).ResultTimeout(10 * time.Second)
		if err != nil {
			return nil, fmt.Errorf("htex probe: task %d: %w", i, err)
		}
		if i >= probeWarmup {
			r.add(time.Since(t0))
		}
	}
	return r, nil
}

// probeThreadpool times direct threadpool.Executor.Submit to settle.
func probeThreadpool(seed int64) (*reservoir, error) {
	reg := serialize.NewRegistry()
	if err := reg.Register("noop", noop); err != nil {
		return nil, fmt.Errorf("threadpool probe: %w", err)
	}
	ex := threadpool.New("probe", dagWorkers, reg)
	if err := ex.Start(); err != nil {
		return nil, fmt.Errorf("threadpool probe: %w", err)
	}
	defer ex.Shutdown()
	r := newReservoir(seed)
	for i := 0; i < probeWarmup+probeTPTasks; i++ {
		t0 := time.Now()
		if _, err := ex.Submit(serialize.TaskMsg{ID: int64(i), App: "noop"}).Result(); err != nil {
			return nil, fmt.Errorf("threadpool probe: task %d: %w", i, err)
		}
		if i >= probeWarmup {
			r.add(time.Since(t0))
		}
	}
	return r, nil
}

// probeEncode times serialize.EncodeArgs on the workload's argument shape, in
// groups of probeEncodeOps calls; each sample is one call's mean in a group.
func probeEncode(args []any, seed int64) (*reservoir, int, error) {
	r := newReservoir(seed)
	size := 0
	for g := 0; g < probeEncodes; g++ {
		t0 := time.Now()
		for i := 0; i < probeEncodeOps; i++ {
			p, err := serialize.EncodeArgs(args, nil)
			if err != nil {
				return nil, 0, fmt.Errorf("encode probe: %w", err)
			}
			size = p.Len()
			p.Release()
		}
		r.add(time.Since(t0) / probeEncodeOps)
	}
	if size == 0 {
		return nil, 0, errors.New("encode probe: empty payload")
	}
	return r, size, nil
}
