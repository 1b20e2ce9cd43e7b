package experiments

import (
	"fmt"
	"testing"

	"neat/internal/faultinject"
	"neat/internal/sim"
)

// TestPDESDeterminism pins the PDES contract the verify suite relies on:
// the same simulation produces byte-identical results for every worker
// count >= 1. Run under -race this also exercises the coordinator's
// synchronization on a real multi-domain workload.
func TestPDESDeterminism(t *testing.T) {
	o := Options{Quick: true}

	// Farm: 4 server/client pairs (8 domains) over 1 vs 4 workers.
	render := func(workers int) (table string, barriers uint64, horizon sim.Time) {
		f, err := newFarm(1, farmPairCount(o), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		f.run(o.farmWarm(), o.farmWindow())
		barriers, horizon, _ = f.sim.PDESStats()
		return f.table(o.farmWindow()).String(), barriers, horizon
	}
	t1, b1, h1 := render(1)
	t4, b4, h4 := render(4)
	if t1 != t4 {
		t.Fatalf("farm report differs between 1 and 4 workers:\n%s\nvs\n%s", t1, t4)
	}
	if b1 != b4 || h1 != h4 {
		t.Fatalf("coordinator stats differ: %d barriers/%v horizon vs %d/%v", b1, h1, b4, h4)
	}

	// A fault-matrix cell: detection outcome and latency are schedule-level
	// facts, so they must also be invariant to the worker count.
	cell := func(workers int) string {
		out := matrixRun(Options{Quick: true, PDESWorkers: workers}, 1,
			faultinject.KindCrash, "tcp", 70*sim.Millisecond)
		return fmt.Sprintf("%+v", out)
	}
	if c1, c4 := cell(1), cell(4); c1 != c4 {
		t.Fatalf("fault-matrix cell differs between 1 and 4 workers:\n%s\nvs\n%s", c1, c4)
	}
}

// TestPDESScalingLadderWindowStats: the ladder's window statistics are
// schedule-level facts, identical for every worker count >= 1, and absent
// on the sequential loop.
func TestPDESScalingLadderWindowStats(t *testing.T) {
	points, err := PDESScalingLadder(Options{Quick: true, Seed: 1}, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if seq := points[0]; seq.Barriers != 0 || seq.EventsPerWindow != 0 {
		t.Fatalf("sequential point reports windows: %+v", seq)
	}
	one, two := points[1], points[2]
	if one.Barriers == 0 || one.EventsPerWindow <= 0 {
		t.Fatalf("1-worker point reports no windows: %+v", one)
	}
	if one.Barriers != two.Barriers || one.EventsPerWindow != two.EventsPerWindow || one.KRPS != two.KRPS {
		t.Fatalf("window stats differ between 1 and 2 workers: %+v vs %+v", one, two)
	}
}
