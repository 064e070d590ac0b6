package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// reservoirSize bounds every duration sample set: percentiles come from a
// uniform sample of at most this many values, so a fast workload's sample
// memory (and so its peak RSS) does not grow with its throughput.
const reservoirSize = 1 << 16

// reservoir keeps a uniform random sample of the durations added to it
// (Vitter's algorithm R), seeded so a run is reproducible.
type reservoir struct {
	vals []time.Duration
	seen int64
	rng  *rand.Rand
}

func newReservoir(seed int64) *reservoir {
	return &reservoir{vals: make([]time.Duration, 0, 1024), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(d time.Duration) {
	r.seen++
	if len(r.vals) < reservoirSize {
		r.vals = append(r.vals, d)
		return
	}
	if j := r.rng.Int63n(r.seen); j < reservoirSize {
		r.vals[j] = d
	}
}

// quantiles returns the requested quantiles (0..1) of the sample, by the
// nearest-rank method; all zero for an empty sample.
func (r *reservoir) quantiles(qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(r.vals) == 0 {
		return out
	}
	s := append([]time.Duration(nil), r.vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, q := range qs {
		k := int(q*float64(len(s))+0.5) - 1
		k = max(0, min(k, len(s)-1))
		out[i] = s[k]
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: parse %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}
