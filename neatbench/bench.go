package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"neat/internal/core"
	"neat/internal/metrics"
	"neat/internal/sim"
)

// procClasses are the server-side process classes of the proc.* metrics.
// A single-component replica carries the "tcp" label.
var procClasses = []string{"driver", "ip", "tcp", "syscall", "app"}

type procAgg struct {
	n                           int
	busy                        sim.Time
	dispatches, messages, halts uint64
}

type tcpTotals struct {
	segs, accepted, timeWaitReaped, delayedAcks, retransmits, resetsIn uint64
	live, pcbFree                                                      uint64
}

func addTCP(t *tcpTotals, systems []*core.System, perReplica *[]uint64) {
	for _, sys := range systems {
		for _, r := range sys.Replicas() {
			e := r.TCP()
			st := e.Stats()
			t.segs += st.SegsIn + st.SegsOut
			t.accepted += st.AcceptedConns
			t.timeWaitReaped += st.TimeWaitReaped
			t.delayedAcks += st.DelayedAcksSent
			t.retransmits += st.Retransmits
			t.resetsIn += st.ResetsIn
			t.live += uint64(e.NumConns())
			t.pcbFree += uint64(e.PoolStats().FreeConns)
			if perReplica != nil {
				*perReplica = append(*perReplica, st.AcceptedConns)
			}
		}
	}
}

// snap is every cumulative counter the benchmark reads, taken between two
// RunFor calls (a PDES barrier), so one window is the difference of two.
type snap struct {
	events     uint64
	timers     sim.TimerStats
	ipc        sim.IPCStats
	barriers   uint64
	domains    []uint64
	procs      []procAgg
	rx, tx     uint64
	rxDropFull uint64
	tsoSegs    uint64
	polls      uint64
	wire       wireStats
	srv, cli   tcpTotals
	accepted   []uint64 // per server replica
	sent       uint64   // requests the load generators sent
	connErrors uint64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint64
}

func takeSnap(w *world) snap {
	s := snap{events: w.sim.EventsRun(), timers: w.sim.TimerStats(), ipc: w.sim.IPCStats(),
		procs: make([]procAgg, len(procClasses))}
	barriers, _, doms := w.sim.PDESStats()
	s.barriers = barriers
	for _, d := range doms {
		s.domains = append(s.domains, d.Events)
	}
	for _, p := range w.sim.Procs() {
		if !w.serverMachines[p.Machine()] {
			continue
		}
		for i, c := range procClasses {
			if p.Component != c {
				continue
			}
			st := p.Stats()
			a := &s.procs[i]
			a.n++
			a.busy += st.BusyNs()
			a.dispatches += st.Dispatches
			a.messages += st.Messages
			a.halts += st.Halts
		}
	}
	for _, n := range w.nics {
		ns := n.Stats()
		s.rx += ns.RxFrames
		s.tx += ns.TxFrames
		s.rxDropFull += ns.RxDropFull
		s.tsoSegs += ns.TSOSegments
	}
	for _, sys := range w.servers {
		s.polls += sys.Driver().Stats().Polls
	}
	s.wire = w.wire()
	addTCP(&s.srv, w.servers, &s.accepted)
	addTCP(&s.cli, w.clients, nil)
	for _, g := range w.gens {
		st := g.Stats()
		s.sent += st.RequestsSent
		s.connErrors += st.ConnErrors
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes, s.gcCycles = ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC)
	return s
}

// hopAgg is one component's per-hop totals from the message tracer.
type hopAgg struct {
	count       uint64
	queue, proc float64 // summed ns
}

// hopComponents are the hop.* metric components, in path order.
var hopComponents = []string{"wire", "switch", "nic", "driver", "ip", "tcp", "syscall", "app"}

func hopTotals(w *world) map[string]hopAgg {
	out := map[string]hopAgg{}
	if w.trace == nil {
		return out
	}
	for _, sp := range w.trace.Breakdown() {
		a := out[sp.Component]
		a.count += sp.Count
		a.queue += float64(sp.Queue.Mean()) * float64(sp.Queue.Count())
		a.proc += float64(sp.Proc.Mean()) * float64(sp.Proc.Count())
		out[sp.Component] = a
	}
	return out
}

// repOpts selects how one repetition is run.
type repOpts struct {
	observe bool // attach the message tracer
	profile bool // CPU-profile the measured window
	pdes    int  // PDES workers (0 = sequential engine)
}

// rep is one repetition: a fresh world built, warmed up and measured.
type rep struct {
	build, boot, warm, window, collect       float64 // driver spans, seconds
	heapMB                                   float64
	start, end                               snap
	good, windowResp, discarded, windowBytes uint64
	lat                                      metrics.Histogram
	hops0, hops1                             map[string]hopAgg
	profile                                  []byte
	conns                                    int
}

func (r *rep) setup() float64 { return r.build + r.boot + r.warm }

// bootSlice is the simulated time the boot span covers after the
// generators start: the initial connection set's handshakes.
const bootSlice = sim.Millisecond

// warmOffset is the seed's shift of the window start, under 1 ms of
// simulated time: one seed always opens the window at the same instant,
// and different seeds sample different phases of the steady state.
func warmOffset(seed int64) sim.Time {
	x := uint64(seed) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return sim.Time(x%1000) * sim.Microsecond
}

func runRep(wl workload, seed int64, o repOpts) (*rep, error) {
	runtime.GC() // the previous repetition's garbage is not this one's cost
	r := &rep{}
	t0 := time.Now()
	w, err := wl.build(seed, o.observe, o.pdes)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", wl.name, err)
	}
	t1 := time.Now()
	for _, g := range w.gens {
		g.Start()
	}
	w.sim.RunFor(bootSlice)
	t2 := time.Now()
	w.sim.RunFor(wl.warm - bootSlice + warmOffset(seed))
	t3 := time.Now()
	r.build, r.boot, r.warm = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()

	r.start = takeSnap(w)
	r.hops0 = hopTotals(w)
	for _, g := range w.gens {
		g.BeginMeasure()
	}
	var prof bytes.Buffer
	if o.profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	t4 := time.Now()
	w.sim.RunFor(wl.window)
	t5 := time.Now()
	if o.profile {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	r.window = t5.Sub(t4).Seconds()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	r.end = takeSnap(w)
	r.hops1 = hopTotals(w)
	for _, g := range w.gens {
		st := g.Stats()
		r.good += g.GoodResponses()
		r.windowResp += st.WindowResponses
		r.discarded += st.WindowDiscarded
		r.windowBytes += st.WindowBytes
		r.lat.Merge(g.Latency())
	}
	r.conns = w.conns
	r.collect = time.Since(t5).Seconds()
	runtime.KeepAlive(w)
	return r, nil
}

// field is one named modeled quantity of a digest.
type field struct {
	name string
	v    uint64
}

// digest lists a repetition's modeled (simulated) results: everything
// that must repeat exactly for one seed and be the same on any PDES worker
// count and with or without the tracer. PDES coordinator counters are left
// out, since they legitimately differ between engines.
func (r *rep) digest() []field {
	d := func(a, b uint64) uint64 { return b - a }
	s, e := &r.start, &r.end
	f := []field{
		{"events", d(s.events, e.events)},
		{"good", r.good}, {"window_responses", r.windowResp}, {"discarded", r.discarded},
		{"window_bytes", r.windowBytes}, {"sent", d(s.sent, e.sent)},
		{"conn_errors", d(s.connErrors, e.connErrors)},
		{"lat.count", r.lat.Count()}, {"lat.mean", uint64(r.lat.Mean())},
		{"lat.min", uint64(r.lat.Min())}, {"lat.max", uint64(r.lat.Max())},
		{"timers.fired", d(s.timers.Fired, e.timers.Fired)},
		{"timers.cascades", d(s.timers.Cascades, e.timers.Cascades)},
		{"timers.pending", uint64(e.timers.Pending)},
		{"ipc.sends", d(s.ipc.Sends, e.ipc.Sends)},
		{"ipc.slow_path", d(s.ipc.SlowPath, e.ipc.SlowPath)},
		{"ipc.wakes_saved", d(s.ipc.WakesSaved, e.ipc.WakesSaved)},
		{"ipc.stalls", d(s.ipc.Stalls, e.ipc.Stalls)},
		{"ipc.depth_hw", uint64(e.ipc.DepthHW)},
		{"ipc.batches", d(s.ipc.Batches, e.ipc.Batches)},
		{"ipc.batch_msgs", d(s.ipc.BatchMsgs, e.ipc.BatchMsgs)},
		{"nic.rx", d(s.rx, e.rx)}, {"nic.tx", d(s.tx, e.tx)},
		{"nic.rx_drop_full", d(s.rxDropFull, e.rxDropFull)},
		{"nic.tso_segments", d(s.tsoSegs, e.tsoSegs)},
		{"driver.polls", d(s.polls, e.polls)},
		{"wire.frames", d(s.wire.frames, e.wire.frames)},
		{"wire.dropped", d(s.wire.dropped, e.wire.dropped)},
		{"wire.forwarded", d(s.wire.forwarded, e.wire.forwarded)},
		{"tcp.segs", d(s.srv.segs, e.srv.segs)},
		{"tcp.accepted", d(s.srv.accepted, e.srv.accepted)},
		{"tcp.time_wait_reaped", d(s.srv.timeWaitReaped, e.srv.timeWaitReaped)},
		{"tcp.delayed_acks", d(s.srv.delayedAcks, e.srv.delayedAcks)},
		{"tcp.retransmits", d(s.srv.retransmits+s.cli.retransmits, e.srv.retransmits+e.cli.retransmits)},
		{"tcp.resets_in", d(s.srv.resetsIn+s.cli.resetsIn, e.srv.resetsIn+e.cli.resetsIn)},
		{"tcp.live", e.srv.live}, {"tcp.pcb_free", e.srv.pcbFree},
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		f = append(f, field{fmt.Sprintf("lat.q%g", q), uint64(r.lat.Quantile(q))})
	}
	for i, c := range procClasses {
		a, b := s.procs[i], e.procs[i]
		f = append(f,
			field{"proc." + c + ".busy_ns", uint64(b.busy - a.busy)},
			field{"proc." + c + ".dispatches", b.dispatches - a.dispatches},
			field{"proc." + c + ".messages", b.messages - a.messages},
			field{"proc." + c + ".halts", b.halts - a.halts})
	}
	for i := range e.accepted {
		f = append(f, field{fmt.Sprintf("tcp.accepted.replica%d", i), e.accepted[i] - s.accepted[i]})
	}
	return f
}

// sameModel reports the first modeled quantity on which a and b differ.
func sameModel(a, b []field) error {
	if len(a) != len(b) {
		return fmt.Errorf("digest length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s: %d vs %d", a[i].name, a[i].v, b[i].v)
		}
	}
	return nil
}

// checkRep verifies a repetition's own outputs: no failed or discarded
// request, and window bytes equal good responses × body size.
func checkRep(wl workload, r *rep) error {
	if r.good == 0 {
		return fmt.Errorf("no good responses in the window")
	}
	if r.windowBytes != r.good*uint64(wl.body) {
		return fmt.Errorf("window bytes %d != %d good responses × %d B", r.windowBytes, r.good, wl.body)
	}
	if errs := r.end.connErrors - r.start.connErrors; errs != 0 || r.discarded != 0 {
		return fmt.Errorf("%d connection errors, %d discarded responses", errs, r.discarded)
	}
	return nil
}

// attempted is the number of requests sent during the window.
func (r *rep) attempted() uint64 { return r.end.sent - r.start.sent }

// failed counts connection errors plus discarded responses, as httperf does.
func (r *rep) failed() uint64 { return r.end.connErrors - r.start.connErrors + r.discarded }

// quantileUS estimates the q-quantile of h in microseconds, interpolated
// linearly inside the √2-wide bucket that holds it. The bucket's edges
// and its share of the samples are recovered through the histogram's
// public Quantile: the rank-k sample lies in the bucket whose upper edge
// Quantile reports for (k+0.5)/n.
func quantileUS(h *metrics.Histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rankValue := func(k uint64) sim.Time {
		if k >= n {
			return h.Max()
		}
		return h.Quantile((float64(k) + 0.5) / float64(n))
	}
	target := uint64(q * float64(n))
	if target == 0 {
		target = 1
	}
	upper := rankValue(target)
	// Ranks 1..lo sit below the bucket, lo+1..hi inside it.
	lo := searchRank(n, func(k uint64) bool { return rankValue(k) >= upper })
	hi := searchRank(n, func(k uint64) bool { return rankValue(k) > upper })
	// Buckets are half powers of two of 1 µs. An estimate clamped to the
	// largest sample lies in that sample's bucket, whose lower edge is
	// not upper/√2.
	lower := float64(upper) / math.Sqrt2
	if upper == h.Max() {
		b := math.Floor(2 * math.Log2(float64(upper)/float64(sim.Microsecond)))
		lower = float64(sim.Microsecond) * math.Pow(2, b/2)
	}
	if m := float64(h.Min()); lower < m {
		lower = m
	}
	frac := (float64(target-lo) - 0.5) / float64(hi-lo)
	return (lower + (float64(upper)-lower)*frac) / float64(sim.Microsecond)
}

// searchRank returns the number of ranks in 1..n for which pred is false,
// pred being monotone (false then true).
func searchRank(n uint64, pred func(uint64) bool) uint64 {
	lo, hi := uint64(1), n+1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}

// endToEnd computes the end-to-end metrics of the timed repetitions: host
// times and heap as medians, modeled figures from the first repetition
// (all repetitions agree on them, which the caller has checked).
func endToEnd(wl workload, reps []*rep) map[string]float64 {
	var wall, setup, heap []float64
	for _, r := range reps {
		wall = append(wall, r.window)
		setup = append(setup, r.setup())
		heap = append(heap, r.heapMB)
	}
	r := reps[0]
	return map[string]float64{
		"wall_s":         median(wall),
		"setup_s":        median(setup),
		"live_heap_mb":   median(heap),
		"sim_krps":       float64(r.good) / wl.window.Seconds() / 1000,
		"sim_lat_p50_us": quantileUS(&r.lat, 0.5),
		"sim_lat_p99_us": quantileUS(&r.lat, 0.99),
		"ok_ratio":       1 - float64(r.failed())/float64(r.attempted()),
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the per-layer metrics of a traced run. base is an
// untraced repetition, prof a profiled one, traced one with the message
// tracer attached; seq and oneWorker are the PDES comparison runs (nil
// when the workload runs on the sequential engine). Modeled window counts
// are read from base's digest, so reported and checked figures are the
// same numbers.
func perLayer(wl workload, base, prof, traced *rep, oneWorker, seq *rep, seqMatch bool) (map[string]float64, error) {
	d := map[string]float64{}
	for _, f := range base.digest() {
		d[f.name] = float64(f.v)
	}
	s, e := &base.start, &base.end
	good, events, win := d["good"], d["events"], wl.window.Seconds()
	m := map[string]float64{
		"span.build_s": base.build, "span.boot_s": base.boot, "span.warm_s": base.warm,
		"span.window_s": base.window, "span.collect_s": base.collect,
		"sim.events":                   events,
		"sim.host_ns_per_event":        ratio(base.window*1e9, events),
		"sim.timers.fired":             d["timers.fired"],
		"sim.timers.cascades":          d["timers.cascades"],
		"sim.timers.resident_end":      d["timers.pending"],
		"sim.timers.resident_per_conn": ratio(d["timers.pending"], float64(base.conns)),

		"ipc.sends_per_req":  ratio(d["ipc.sends"], good),
		"ipc.slow_path":      d["ipc.slow_path"],
		"ipc.msgs_per_batch": ratio(d["ipc.batch_msgs"], d["ipc.batches"]),
		"ipc.wakes_saved":    d["ipc.wakes_saved"],
		"ipc.stalls":         d["ipc.stalls"],
		"ipc.depth_hw":       d["ipc.depth_hw"],

		"nic.rx_frames":      d["nic.rx"],
		"nic.tx_frames":      d["nic.tx"],
		"nic.rx_drop_full":   d["nic.rx_drop_full"],
		"nic.tso_segments":   d["nic.tso_segments"],
		"nic.frames_per_req": ratio(d["nic.rx"]+d["nic.tx"], good),
		"driver.polls":       d["driver.polls"],

		"wire.frames":           d["wire.frames"],
		"wire.dropped":          d["wire.dropped"],
		"wire.switch_forwarded": d["wire.forwarded"],

		"tcp.segs_per_req":     ratio(d["tcp.segs"], good),
		"tcp.accepted":         d["tcp.accepted"],
		"tcp.time_wait_reaped": d["tcp.time_wait_reaped"],
		"tcp.delayed_acks":     d["tcp.delayed_acks"],
		"tcp.live_conns_end":   d["tcp.live"],
		"tcp.pcb_free_end":     d["tcp.pcb_free"],
		"tcp.retransmits":      d["tcp.retransmits"],
		"tcp.resets_in":        d["tcp.resets_in"],

		"go.alloc_bytes_per_event": ratio(float64(e.allocBytes-s.allocBytes), events),
		"go.mallocs_per_event":     ratio(float64(e.mallocs-s.mallocs), events),
		"go.gc_cycles":             float64(e.gcCycles - s.gcCycles),

		"trace.overhead_ratio": ratio(traced.window, base.window),
		"error_ratio":          ratio(float64(base.failed()), float64(base.attempted())),
		"loadgen.lat_samples":  d["lat.count"],
	}

	barriers := float64(e.barriers - s.barriers)
	var perDomain []float64
	for i := range e.domains {
		perDomain = append(perDomain, float64(e.domains[i]-s.domains[i]))
	}
	m["sim.pdes.barriers"] = barriers
	m["sim.pdes.events_per_window"] = ratio(events, barriers)
	m["sim.pdes.domain_skew"] = maxOverMean(perDomain)
	m["sim.pdes.speedup_vs_1w"], m["sim.pdes.speedup_vs_seq"], m["sim.pdes.seq_match"] = 0, 0, 0
	if oneWorker != nil {
		m["sim.pdes.speedup_vs_1w"] = ratio(oneWorker.window, base.window)
	}
	if seq != nil {
		m["sim.pdes.speedup_vs_seq"] = ratio(seq.window, base.window)
	}
	if seqMatch {
		m["sim.pdes.seq_match"] = 1
	}

	for i, c := range procClasses {
		p := "proc." + c
		m[p+".util"] = ratio(d[p+".busy_ns"]/1e9, win*float64(e.procs[i].n))
		m[p+".msgs_per_dispatch"] = ratio(d[p+".messages"], d[p+".dispatches"])
		m[p+".halts_per_req"] = ratio(d[p+".halts"], good)
	}

	var perReplica []float64
	for i := range e.accepted {
		perReplica = append(perReplica, d[fmt.Sprintf("tcp.accepted.replica%d", i)])
	}
	m["steer.replica_imbalance"] = maxOverMean(perReplica)

	shares, err := foldCPUProfile(prof.profile)
	if err != nil {
		return nil, err
	}
	for _, l := range cpuLayers {
		m["host_cpu."+l] = shares[l]
	}

	for _, c := range hopComponents {
		a, b := traced.hops0[c], traced.hops1[c]
		n := float64(b.count - a.count)
		m["hop."+c+".queue_us"] = ratio(b.queue-a.queue, n) / 1e3
		m["hop."+c+".proc_us"] = ratio(b.proc-a.proc, n) / 1e3
	}
	return m, nil
}

// maxOverMean is the largest value over the mean (0 for no values).
func maxOverMean(v []float64) float64 {
	var max, sum float64
	for _, x := range v {
		sum += x
		max = math.Max(max, x)
	}
	return ratio(max, sum/math.Max(1, float64(len(v))))
}
