// Command perfbench is the repository benchmark. It deploys the DFK and its
// executors through the public API, drives one workload for a fixed time,
// checks every output, and prints each metric by name and unit, ending with
// one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// is traced and reports the per-layer metrics, the layer-floor probes and the
// tracing overhead. --workload all runs every workload, each in its own
// process. The exit status is non-zero when any output check fails. See
// README.md for the workloads, the metric definitions and which end-to-end
// metric each layer metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// deployments is how many fresh deployments a run measures, each for an
// equal share of the run. One more, untimed, warms the process up first;
// setup_s is the median set-up time over all of them.
const deployments = 10

// warmupFor is how long the warm-up deployment drives the workload.
const warmupFor = time.Second

// samplePeriod is the depth sampler's polling period in a traced run.
const samplePeriod = 2 * time.Millisecond

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"tasks_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"setup_s", "s"},
	{"alloc_bytes_per_task", "bytes"},
	{"peak_rss_mib", "MiB"},
}

var perLayer = []metricDef{
	{"e2e.latency_p99_ms", "ms"},
	{"dfk.submit_us.p50", "us"},
	{"dfk.submit_us.p99", "us"},
	{"dfk.overhead_us.p50", "us"},
	{"future.wait_us.p50", "us"},
	{"task.live_nodes_max", "count"},
	{"task.recycled_frac", "ratio"},
	{"serialize.encode_us.p50", "us"},
	{"serialize.payload_bytes", "bytes"},
	{"htex.roundtrip_ms.p50", "ms"},
	{"htex.roundtrip_ms.p99", "ms"},
	{"htex.client_queue_depth.mean", "count"},
	{"htex.interchange_queue_depth.mean", "count"},
	{"htex.outstanding.mean", "count"},
	{"htex.shard_skew", "ratio"},
	{"htex.lost", "count"},
	{"mq.rtt_us.p50", "us"},
	{"simnet.rtt_us.p50", "us"},
	{"simnet.rtt_us.p99", "us"},
	{"simnet.rtt_inflation", "ratio"},
	{"threadpool.roundtrip_us.p50", "us"},
	{"runtime.allocs_per_task", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.tasks_per_s", "1/s"},
	{"trace.untraced_tasks_per_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric under its defined unit.
func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: undefined metric " + name)
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace)
	}
	w, ok := newWorkload(*name, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n",
			*name, strings.Join(workloadNames, ", "))
		return 2
	}
	d := time.Duration(*seconds) * time.Second
	// A hung task would block its Result forever; bound the run instead.
	limit := 4*d + time.Minute
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run did not finish within %v\n", *name, limit)
		os.Exit(3)
	})
	spans := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", *name, *seed)
	res, err := measure(w, *seed, d, *trace == 1, spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Printf("%-12s %-34s %14.4f %s\n", *name, m.name, res.Metrics[m.name].Value, m.unit)
	}
	if *trace == 1 {
		fmt.Printf("%-12s tracing overhead %.1f%%: traced %.1f tasks/s, untraced %.1f tasks/s\n", *name,
			100*res.Metrics["trace.overhead_frac"].Value,
			res.Metrics["trace.tasks_per_s"].Value, res.Metrics["trace.untraced_tasks_per_s"].Value)
	}
	fmt.Printf("%-12s attempted %d, failed %d\n", *name, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload on deployments fresh deployments, driving each
// for an equal share of d, so one run pools several independent deployments.
// In a traced run each deployment spends half its share untraced and half
// traced, with spans and the depth sampler on; the run ends with the
// layer-floor probes, and its span log goes to spansPath.
func measure(w workload, seed int64, d time.Duration, trace bool, spansPath string) (result, error) {
	share := d / deployments
	if trace {
		share /= 2
	}
	var (
		setups                   []float64
		warm, plain, traced      = newPhase(seed), newPhase(seed), newPhase(seed)
		tr                       = newTracer(seed)
		smp                      sampler
		allocBytes, mallocs, gcs uint64
		submitted, recycled      int64
		checkErr                 error
		onHTEX                   bool
	)
	for i := 0; i <= deployments; i++ {
		t0 := time.Now()
		e, err := w.build()
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		onHTEX = e.htex != nil

		if i == 0 {
			w.run(e, warmupFor, nil, warm)
		} else {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			w.run(e, share, nil, plain)
			runtime.ReadMemStats(&m1)
			allocBytes += m1.TotalAlloc - m0.TotalAlloc
			mallocs += m1.Mallocs - m0.Mallocs
			gcs += uint64(m1.NumGC - m0.NumGC)
			if trace {
				runtime.GC()
				smp.start(e.dfk, e.htex, samplePeriod)
				w.run(e, share, tr, traced)
				smp.finish()
			}
		}
		if err := e.finish(); err != nil && checkErr == nil {
			checkErr = err
		}
		submitted += e.submitted
		recycled += e.dfk.Graph().RecycledNodes() // finish waited for every task
	}
	res := newResult(plain, checkErr)
	res.add(warm)
	lat := plain.lat.quantiles(0.5, 0.99)
	if !trace {
		rss, err := peakRSSMiB()
		if err != nil {
			return result{}, err
		}
		set := func(name string, v float64) { res.set(endToEnd, name, v) }
		set("tasks_per_s", plain.tasksPerSec())
		set("latency_p50_ms", ms(lat[0]))
		set("setup_s", median(setups))
		set("alloc_bytes_per_task", float64(allocBytes)/float64(max(plain.tasks, 1)))
		set("peak_rss_mib", rss)
		fmt.Printf("%-12s %d latency samples of %d tasks\n", "", len(plain.lat.vals), plain.lat.seen)
		return res, nil
	}

	res.add(traced)
	fl, err := probeFloors(w, seed)
	if err != nil {
		return result{}, err
	}
	if err := tr.writeSpans(spansPath); err != nil {
		return result{}, err
	}
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	sub := tr.submit.quantiles(0.5, 0.99)
	set("dfk.submit_us.p50", us(sub[0]))
	set("dfk.submit_us.p99", us(sub[1]))
	floor := fl.tpRTT
	if onHTEX {
		floor = fl.htexRTT
	}
	set("e2e.latency_p99_ms", ms(lat[1]))
	set("dfk.overhead_us.p50", us(lat[0]-floor.quantiles(0.5)[0]))
	set("future.wait_us.p50", us(tr.wait.quantiles(0.5)[0]))
	set("task.live_nodes_max", float64(smp.liveMax))
	set("task.recycled_frac", float64(recycled)/float64(submitted))
	set("serialize.encode_us.p50", us(fl.encode.quantiles(0.5)[0]))
	set("serialize.payload_bytes", float64(fl.payloadBytes))
	hx := fl.htexRTT.quantiles(0.5, 0.99)
	set("htex.roundtrip_ms.p50", ms(hx[0]))
	set("htex.roundtrip_ms.p99", ms(hx[1]))
	set("htex.client_queue_depth.mean", smp.mean(smp.clientQ))
	set("htex.interchange_queue_depth.mean", smp.mean(smp.ixQ))
	set("htex.outstanding.mean", smp.mean(smp.outstanding))
	set("htex.shard_skew", smp.shardSkew())
	set("htex.lost", float64(plain.lost+traced.lost))
	set("mq.rtt_us.p50", us(fl.mqRTT.quantiles(0.5)[0]))
	sn := fl.simnetRTT.quantiles(0.5, 0.99)
	set("simnet.rtt_us.p50", us(sn[0]))
	set("simnet.rtt_us.p99", us(sn[1]))
	set("simnet.rtt_inflation", float64(sn[0])/float64(modelledRTT))
	set("threadpool.roundtrip_us.p50", us(fl.tpRTT.quantiles(0.5)[0]))
	set("runtime.allocs_per_task", float64(mallocs)/float64(max(plain.tasks, 1)))
	set("runtime.gc_cycles", float64(gcs))
	set("trace.tasks_per_s", traced.tasksPerSec())
	set("trace.untraced_tasks_per_s", plain.tasksPerSec())
	set("trace.overhead_frac", 1-traced.tasksPerSec()/plain.tasksPerSec())
	fmt.Printf("%-12s spans of %d tasks written to %s\n", "", len(tr.spans)/3, spansPath)
	return res, nil
}

func newResult(p *phase, checkErr error) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	res.add(p)
	if checkErr != nil {
		res.Correct = false
		res.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", checkErr)
	}
	return res
}

// add folds a phase's task counts into the result; a failed task makes the
// run incorrect.
func (r *result) add(p *phase) {
	r.Attempted += p.tasks
	r.Failed += p.failed
	if p.failed > 0 {
		r.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d tasks failed or were wrong; first: %v\n", p.failed, p.tasks, p.firstErr)
	}
}

// runAll runs every workload in its own process and prints each one's
// report; the last line merges their results, with metric names prefixed
// by the workload.
func runAll(seed int64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: no result (%v)\n", name, runErr)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && r.Correct && runErr == nil
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}
