package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"neat/internal/metrics"
	"neat/internal/sim"
)

// short shrinks a workload's warm-up and window so a self-test run takes
// well under a second of host time per repetition.
func short(wl workload) workload {
	wl.warm, wl.window = 4*sim.Millisecond, 3*sim.Millisecond
	return wl
}

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesDriver keeps BENCHMARK.json and the driver's
// metric tables in step: same workloads, same metric names and units.
func TestBenchmarkFileMatchesDriver(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the driver", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the driver", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the driver",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics)
	check("per_layer", bf.PerLayer, perLayerMetrics())
}

// TestShortRunsEmitEveryMetric runs every workload briefly in both modes
// and checks the outputs are correct and every named metric is emitted
// with a finite value (and, end to end, a non-zero one).
func TestShortRunsEmitEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		wl := short(wl)
		t.Run(wl.name, func(t *testing.T) {
			res, err := timedRun(wl, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEndMetrics, true)
			res, err = tracedRun(wl, 3)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayerMetrics(), false)
		})
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d named", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", d.name)
		case v.Unit != d.unit:
			t.Errorf("%s: unit %q, want %q", d.name, v.Unit, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s = %v", d.name, v.Value)
		case nonZero && v.Value == 0:
			t.Errorf("%s = 0", d.name)
		}
	}
}

// TestPerturbedDigestIsCaught checks that the output checks notice a
// change in the modeled results: a digest with one quantity altered, a
// run of another seed (its window opens at another instant), and window
// bytes that no longer match the good responses.
func TestPerturbedDigestIsCaught(t *testing.T) {
	wl := short(workloads[0])
	a, err := runRep(wl, 1, repOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRep(wl, 1, repOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameModel(a.digest(), b.digest()); err != nil {
		t.Fatalf("one seed, two repetitions: %v", err)
	}
	if err := checkRep(wl, a); err != nil {
		t.Fatal(err)
	}

	d := b.digest()
	for i := range d {
		if d[i].name == "timers.cascades" {
			d[i].v++
		}
	}
	if err := sameModel(a.digest(), d); err == nil || !strings.Contains(err.Error(), "timers.cascades") {
		t.Errorf("perturbed digest: got %v, want a timers.cascades mismatch", err)
	}

	c, err := runRep(wl, 2, repOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sameModel(a.digest(), c.digest()) == nil {
		t.Error("seeds 1 and 2 gave identical modeled results")
	}

	b.windowBytes++
	if checkRep(wl, b) == nil {
		t.Error("window bytes off by one passed the check")
	}
}

func TestQuantileUSInterpolatesInsideBucket(t *testing.T) {
	var h metrics.Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(sim.Time(100+i%7) * sim.Microsecond)
	}
	for i := 0; i < 1000; i++ {
		h.Observe(sim.Time(300+i%11) * sim.Microsecond)
	}
	p50, p99 := quantileUS(&h, 0.5), quantileUS(&h, 0.99)
	// The bucket estimate is the bucket's upper edge; interpolation lands
	// inside the bucket, at or below that edge.
	if up := float64(h.Quantile(0.5)) / 1e3; p50 > up || p50 < up/math.Sqrt2 {
		t.Errorf("p50 %.2f outside its bucket (%.2f, %.2f]", p50, up/math.Sqrt2, up)
	}
	if p99 <= p50 || p99 > float64(h.Max())/1e3 {
		t.Errorf("p99 %.2f, p50 %.2f, max %v", p99, p50, h.Max())
	}
	var empty metrics.Histogram
	if quantileUS(&empty, 0.5) != 0 {
		t.Error("empty histogram")
	}
}

func TestCPULayer(t *testing.T) {
	for fn, want := range map[string]string{
		"neat/internal/sim.(*timerWheel).peek":    "sim",
		"neat/internal/tcpeng.(*Engine).input":    "tcpeng",
		"neat/internal/experiments.NewBed":        "other",
		"runtime.mallocgc":                        "runtime_alloc",
		"runtime.scanobject":                      "runtime_gc",
		"internal/runtime/maps.(*Map).getWithKey": "runtime_maps",
		"runtime.mapaccess2_fast64":               "runtime_maps",
		"runtime.futex":                           "runtime_other",
		"sort.Slice":                              "other",
	} {
		if got := cpuLayer(fn); got != want {
			t.Errorf("cpuLayer(%q) = %s, want %s", fn, got, want)
		}
	}
}

// TestFoldCPUProfile folds a real profile of this process: the shares
// cover every layer and sum to one.
func TestFoldCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		m := map[int]int{}
		for i := 0; i < 1000; i++ {
			m[i] = i
		}
		x += len(m)
	}
	pprof.StopCPUProfile()
	shares, err := foldCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		v, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v (x=%d)", sum, x)
	}
}
