package app

import (
	"runtime"
	"testing"

	"neat/internal/sim"
	"neat/internal/tcpeng"
)

// TestKeepAliveHTTPAllocBudget guards the allocation-free socket byte path:
// once a keep-alive NEaT web bed is warm, a request's trip through the
// loadgen, both stacks and the httpd — send buffers, received-data events,
// request and response parsing — allocates nothing on the heap. The budget
// leaves room for per-connection setup and the odd pool refill after a GC.
func TestKeepAliveHTTPAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const budget = 0.5 // heap allocations per completed request
	b := newWebBed(t, 2, 1, 2, tcpeng.DefaultConfig(),
		HTTPDConfig{}, LoadgenConfig{Conns: 24, ReqPerConn: 1000})
	b.start()
	b.run(20 * sim.Millisecond) // warm: connections open, pools filled

	var before, after runtime.MemStats
	resp0 := b.responses()
	runtime.ReadMemStats(&before)
	b.run(20 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	reqs := b.responses() - resp0

	if reqs < 1000 {
		t.Fatalf("only %d requests completed in the window (errors=%d)", reqs, b.errors())
	}
	perReq := float64(after.Mallocs-before.Mallocs) / float64(reqs)
	t.Logf("%d requests, %.3f heap allocations per request", reqs, perReq)
	if perReq > budget {
		t.Fatalf("%.3f heap allocations per request, budget %.1f", perReq, budget)
	}
}
