// Command neatbench is the repository's benchmark driver. It runs one
// named workload through the public experiment constructors, checks the
// modeled outputs, and prints its metrics as one JSON object on the last
// line of standard output. See README.md for the workloads and metrics.
//
//	neatbench --workload web_small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it times repeated repetitions for --seconds and prints the
// end-to-end metrics; with --trace 1 it makes the separate traced run that
// gives the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef names one output metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed with --trace 0.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"}, {"setup_s", "s"}, {"live_heap_mb", "MB"},
	{"sim_krps", "krps"}, {"sim_lat_p50_us", "us"}, {"sim_lat_p99_us", "us"},
	{"ok_ratio", "1"},
}

// perLayerMetrics are printed with --trace 1.
func perLayerMetrics() []metricDef {
	out := []metricDef{
		{"span.build_s", "s"}, {"span.boot_s", "s"}, {"span.warm_s", "s"},
		{"span.window_s", "s"}, {"span.collect_s", "s"},
		{"sim.events", "count"}, {"sim.host_ns_per_event", "ns"},
		{"sim.timers.fired", "count"}, {"sim.timers.cascades", "count"},
		{"sim.timers.resident_end", "count"}, {"sim.timers.resident_per_conn", "ratio"},
		{"sim.pdes.barriers", "count"}, {"sim.pdes.events_per_window", "ratio"},
		{"sim.pdes.domain_skew", "ratio"}, {"sim.pdes.speedup_vs_1w", "x"},
		{"sim.pdes.speedup_vs_seq", "x"}, {"sim.pdes.seq_match", "bool"},
	}
	for _, c := range procClasses {
		out = append(out, metricDef{"proc." + c + ".util", "share"},
			metricDef{"proc." + c + ".msgs_per_dispatch", "ratio"},
			metricDef{"proc." + c + ".halts_per_req", "ratio"})
	}
	out = append(out,
		metricDef{"ipc.sends_per_req", "ratio"}, metricDef{"ipc.slow_path", "count"},
		metricDef{"ipc.msgs_per_batch", "ratio"}, metricDef{"ipc.wakes_saved", "count"},
		metricDef{"ipc.stalls", "count"}, metricDef{"ipc.depth_hw", "count"},
		metricDef{"nic.rx_frames", "count"}, metricDef{"nic.tx_frames", "count"},
		metricDef{"nic.rx_drop_full", "count"}, metricDef{"nic.tso_segments", "count"},
		metricDef{"nic.frames_per_req", "ratio"}, metricDef{"driver.polls", "count"},
		metricDef{"wire.frames", "count"}, metricDef{"wire.dropped", "count"},
		metricDef{"wire.switch_forwarded", "count"},
		metricDef{"tcp.segs_per_req", "ratio"}, metricDef{"tcp.accepted", "count"},
		metricDef{"tcp.time_wait_reaped", "count"}, metricDef{"tcp.delayed_acks", "count"},
		metricDef{"tcp.live_conns_end", "count"}, metricDef{"tcp.pcb_free_end", "count"},
		metricDef{"tcp.retransmits", "count"}, metricDef{"tcp.resets_in", "count"},
		metricDef{"steer.replica_imbalance", "ratio"},
		metricDef{"go.alloc_bytes_per_event", "B"}, metricDef{"go.mallocs_per_event", "ratio"},
		metricDef{"go.gc_cycles", "count"},
	)
	for _, l := range cpuLayers {
		out = append(out, metricDef{"host_cpu." + l, "share"})
	}
	for _, c := range hopComponents {
		out = append(out, metricDef{"hop." + c + ".queue_us", "us"}, metricDef{"hop." + c + ".proc_us", "us"})
	}
	return append(out, metricDef{"trace.overhead_ratio", "x"},
		metricDef{"error_ratio", "1"}, metricDef{"loadgen.lat_samples", "count"})
}

// minReps is the fewest timed repetitions a --trace 0 run makes, however
// short --seconds is: medians need at least three. An untimed first
// repetition comes before them.
const minReps = 3

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "web_small", "workload to run: web_small, web_churn or cluster_bulk")
	seed := flag.Int64("seed", 1, "workload seed (the held-out seed for second checks is 7)")
	seconds := flag.Float64("seconds", 10, "host seconds of timed repetitions (--trace 0)")
	traced := flag.Int("trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "neatbench:", err)
		os.Exit(2)
	}
	fmt.Printf("# host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("# workload=%s seed=%d window=%v warm=%v+%v pdes_workers=%d closed-loop, in-process\n",
		wl.name, *seed, wl.window, wl.warm, warmOffset(*seed), wl.pdes)

	var res *result
	switch *traced {
	case 0:
		res, err = timedRun(wl, *seed, time.Duration(*seconds*float64(time.Second)))
	case 1:
		res, err = tracedRun(wl, *seed)
	default:
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "neatbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "neatbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// timedRun repeats the workload from scratch until the time budget is
// spent and reports the end-to-end metrics. Every repetition must repeat
// the first one's modeled results exactly.
func timedRun(wl workload, seed int64, budget time.Duration) (*result, error) {
	res := &result{Correct: true}
	var first *rep
	var reps []*rep
	start := time.Now()
	for i := 0; i <= minReps || time.Since(start) < budget; i++ {
		r, err := runRep(wl, seed, repOpts{pdes: wl.pdes})
		if err != nil {
			return nil, err
		}
		fmt.Printf("# rep %d: setup %.4fs (build %.4f boot %.4f warm %.4f) window %.4fs heap %.2fMB\n",
			i, r.setup(), r.build, r.boot, r.warm, r.window, r.heapMB)
		res.check(fmt.Sprintf("rep %d", i), checkRep(wl, r))
		res.Attempted += r.attempted()
		res.Failed += r.failed()
		if first == nil {
			// The first repetition grows the process heap and is not
			// timed; every later one must repeat its modeled results.
			first = r
			start = time.Now()
			continue
		}
		res.check(fmt.Sprintf("rep %d repeats rep 0", i), sameModel(first.digest(), r.digest()))
		reps = append(reps, r)
	}
	e2e := endToEnd(wl, reps)
	modelNote(wl, e2e["sim_krps"])
	fmt.Printf("# latency samples: %d\n", reps[0].lat.Count())
	res.Metrics = emit(endToEndMetrics, e2e)
	return res, nil
}

// tracedRun makes the per-layer run: an untraced repetition for counters
// and spans, a CPU-profiled one for host time by layer, one with the
// message tracer for modeled per-hop time and, on a PDES workload, the
// same workload on one worker and on the sequential engine. All must
// agree on the modeled results, except that a sequential mismatch is
// reported as sim.pdes.seq_match = 0.
func tracedRun(wl workload, seed int64) (*result, error) {
	res := &result{Correct: true}
	run := func(what string, o repOpts) (*rep, error) {
		r, err := runRep(wl, seed, o)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# %s: setup %.4fs window %.4fs\n", what, r.setup(), r.window)
		res.check(what, checkRep(wl, r))
		return r, nil
	}
	base, err := run("untraced", repOpts{pdes: wl.pdes})
	if err != nil {
		return nil, err
	}
	prof, err := run("profiled", repOpts{pdes: wl.pdes, profile: true})
	if err != nil {
		return nil, err
	}
	res.check("profiled repeats untraced", sameModel(base.digest(), prof.digest()))
	traced, err := run("traced", repOpts{pdes: wl.pdes, observe: true})
	if err != nil {
		return nil, err
	}
	res.check("traced repeats untraced", sameModel(base.digest(), traced.digest()))

	var oneWorker, seq *rep
	seqMatch := true
	if wl.pdes > 0 {
		if oneWorker, err = run("pdes 1 worker", repOpts{pdes: 1}); err != nil {
			return nil, err
		}
		res.check("1 worker repeats 2 workers", sameModel(base.digest(), oneWorker.digest()))
		if seq, err = run("sequential", repOpts{}); err != nil {
			return nil, err
		}
		if err := sameModel(base.digest(), seq.digest()); err != nil {
			seqMatch = false
			fmt.Printf("# known defect: sequential and PDES runs diverge (%v)\n", err)
		}
	}
	m, err := perLayer(wl, base, prof, traced, oneWorker, seq, seqMatch)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = base.attempted(), base.failed()
	res.Metrics = emit(perLayerMetrics(), m)
	return res, nil
}

// check records a failed output check; the run then reports correct=false.
func (res *result) check(what string, err error) {
	if err != nil {
		res.Correct = false
		fmt.Printf("# CHECK FAILED: %s: %v\n", what, err)
	}
}

func emit(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("metric not computed: " + d.name)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out
}

// modelNote prints the modeled request rate against the paper's figure.
func modelNote(wl workload, krps float64) {
	if wl.paperKRPS == 0 {
		fmt.Printf("# model: sim_krps %.2f, unvalidated (no paper figure to compare with)\n", krps)
		return
	}
	fmt.Printf("# model: sim_krps %.2f vs paper %.0f krps (%+.1f%%)\n",
		krps, wl.paperKRPS, 100*(krps-wl.paperKRPS)/wl.paperKRPS)
}

// cpuModel reads the host CPU model for the fingerprint.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
