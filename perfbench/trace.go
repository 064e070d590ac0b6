package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dfk"
	"repro/internal/executor/htex"
)

// maxSpans caps the span log kept in memory: the first tasks of a traced
// phase are logged in full, and every task still feeds the duration samples.
const maxSpans = 3 * 20000

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public API. The spans of one task share its DFK task id;
// the root span is "task", and "dfk.submit" and "future.wait" name it as
// their parent.
type span struct {
	Task   int64  `json:"task"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced phase in memory until writeSpans.
type tracer struct {
	epoch  time.Time
	spans  []span
	submit *reservoir // time inside App.Submit
	wait   *reservoir // time blocked in Future.Result after Submit returned
}

func newTracer(seed int64) *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, 0, 4096),
		submit: newReservoir(seed + 1),
		wait:   newReservoir(seed + 2),
	}
}

// task records one task: App.Submit ran from s0 to s1, and Future.Result
// blocked from w0 to w1.
func (t *tracer) task(id int64, s0, s1, w0, w1 time.Time) {
	t.submit.add(s1.Sub(s0))
	t.wait.add(w1.Sub(w0))
	if len(t.spans)+3 > maxSpans {
		return
	}
	rel := func(x time.Time) int64 { return int64(x.Sub(t.epoch)) }
	t.spans = append(t.spans,
		span{Task: id, Name: "task", Start: rel(s0), End: rel(w1)},
		span{Task: id, Name: "dfk.submit", Parent: "task", Start: rel(s0), End: rel(s1)},
		span{Task: id, Name: "future.wait", Parent: "task", Start: rel(w0), End: rel(w1)},
	)
}

// writeSpans writes the span log as JSON lines.
func (t *tracer) writeSpans(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write spans: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// sampler polls the public depth accessors on a fixed period during a traced
// phase: the DFK routing backlog, the HTEX client and interchange queues and
// in-flight counts, and the task graph's resident record count.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	n                         int
	clientQ, ixQ, outstanding float64
	inflight                  []float64 // per-shard sums
	liveMax                   int
}

// start begins sampling every period until finish; the sums accumulate
// across start/finish pairs.
func (s *sampler) start(d *dfk.DFK, ex *htex.Executor, every time.Duration) {
	s.stop = make(chan struct{})
	if ex != nil && s.inflight == nil {
		s.inflight = make([]float64, ex.ShardCount())
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample(d, ex)
			}
		}
	}()
}

func (s *sampler) sample(d *dfk.DFK, ex *htex.Executor) {
	s.n++
	s.liveMax = max(s.liveMax, d.Graph().LiveNodes())
	if ex == nil {
		return
	}
	for _, n := range d.TenantBacklog() {
		s.clientQ += float64(n)
	}
	for i := 0; i < ex.ShardCount(); i++ {
		s.ixQ += float64(ex.Shard(i).QueueDepth())
	}
	s.outstanding += float64(ex.Outstanding())
	for i, n := range ex.InflightByShard() {
		s.inflight[i] += float64(n)
	}
}

// finish stops sampling and waits for the sampling goroutine, after which
// the fields may be read.
func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

func (s *sampler) mean(sum float64) float64 {
	if s.n == 0 {
		return 0
	}
	return sum / float64(s.n)
}

// shardSkew is the ratio of the busiest shard's mean in-flight count to the
// idlest one's: 1 is perfectly even. 0 when nothing was sampled in flight.
func (s *sampler) shardSkew() float64 {
	if len(s.inflight) == 0 {
		return 0
	}
	lo, hi := s.inflight[0], s.inflight[0]
	for _, v := range s.inflight[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	if lo == 0 {
		return 0
	}
	return hi / lo
}
