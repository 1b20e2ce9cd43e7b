package main

import (
	"fmt"

	"neat/internal/app"
	"neat/internal/core"
	"neat/internal/experiments"
	"neat/internal/nicdev"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/testbed"
	"neat/internal/trace"
)

// workload is one named load shape: how to build its world through the
// public experiment constructors and how long to warm up and measure.
type workload struct {
	name   string
	body   int      // response body bytes
	warm   sim.Time // simulated warm-up before the window opens
	window sim.Time // simulated length of the measured window
	pdes   int      // PDES workers of the timed runs (0 = sequential engine)
	// paperKRPS is the paper's figure for this configuration, or 0 when
	// the paper gives none (the workload is then unvalidated).
	paperKRPS float64
	build     func(seed int64, observe bool, pdes int) (*world, error)
}

// workloads lists the benchmark's workloads by name.
var workloads = []workload{
	{
		// Fig. 7 "NEaT 3x" at its peak (6 lighttpd instances), smallest
		// message: per-event harness cost dominates.
		name: "web_small", body: 20, warm: 40 * sim.Millisecond, window: 300 * sim.Millisecond,
		paperKRPS: 302,
		build: func(seed int64, observe bool, pdes int) (*world, error) {
			return webWorld(experiments.BedConfig{
				Seed: seed, Machine: experiments.AMD, Kind: stack.Single, PDESWorkers: pdes,
				ReplicaSlots: testbed.SingleSlots(2, 3),
				SyscallLoc:   testbed.ThreadLoc{Core: 1},
				WebLocs:      coreSpan(5, 6),
				ConnsPerGen:  24, ReqPerConn: 100, FileSize: 20,
				Observe: observe,
			})
		},
	},
	{
		// Fig. 12 "Multi 2x, 4srv,64": one request per connection, so
		// connection setup and teardown instead of data transfer, and
		// separate IP and TCP processes (twice the IPC hops per packet).
		name: "web_churn", body: 20, warm: 40 * sim.Millisecond, window: 300 * sim.Millisecond,
		build: func(seed int64, observe bool, pdes int) (*world, error) {
			return webWorld(experiments.BedConfig{
				Seed: seed, Machine: experiments.AMD, Kind: stack.Multi, PDESWorkers: pdes,
				ReplicaSlots: testbed.MultiSlots(2, 2),
				SyscallLoc:   testbed.ThreadLoc{Core: 1},
				WebLocs:      coreSpan(6, 4),
				ConnsPerGen:  16, ReqPerConn: 1, FileSize: 20,
				Observe: observe,
			})
		},
	},
	{
		// The default cluster shape (switch + L4 VIP, 3 farms × 2 members
		// × 2 replicas, 4 clients, 2 tenants) with multi-segment replies.
		name: "cluster_bulk", body: 8192, warm: 20 * sim.Millisecond, window: 50 * sim.Millisecond,
		pdes: 2,
		build: func(seed int64, observe bool, pdes int) (*world, error) {
			return clusterWorld(experiments.ClusterBedConfig{
				Seed: seed, PDESWorkers: pdes, FileSize: 8192, Observe: observe,
			})
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func coreSpan(first, n int) []testbed.ThreadLoc {
	out := make([]testbed.ThreadLoc, n)
	for i := range out {
		out[i] = testbed.ThreadLoc{Core: first + i}
	}
	return out
}

// world is the benchmark's view of a built testbed: the handles through
// which it drives the load and reads each layer's public counters.
type world struct {
	sim     *sim.Simulator
	gens    []*app.Loadgen
	servers []*core.System // the NEaT systems under test
	clients []*core.System // the load generators' stacks
	// serverMachines holds the machines whose processes count in the
	// proc.* metrics.
	serverMachines map[*sim.Machine]bool
	nics           []*nicdev.NIC
	wire           func() wireStats
	trace          *trace.Tracer
	conns          int // configured concurrent client connections
}

type wireStats struct{ frames, dropped, forwarded uint64 }

func webWorld(cfg experiments.BedConfig) (*world, error) {
	b, err := experiments.NewBed(cfg)
	if err != nil {
		return nil, err
	}
	return &world{
		sim: b.Net.Sim, gens: b.Gens,
		servers: []*core.System{b.NEaT}, clients: []*core.System{b.CliSys},
		serverMachines: map[*sim.Machine]bool{b.Server.Machine: true},
		nics:           []*nicdev.NIC{b.Server.NIC},
		wire: func() wireStats {
			ls := b.Net.Link.Stats()
			return wireStats{frames: ls.Frames[0] + ls.Frames[1], dropped: ls.Dropped[0] + ls.Dropped[1]}
		},
		trace: b.Trace,
		conns: len(b.Gens) * cfg.ConnsPerGen,
	}, nil
}

func clusterWorld(cfg experiments.ClusterBedConfig) (*world, error) {
	b, err := experiments.NewClusterBed(cfg)
	if err != nil {
		return nil, err
	}
	w := &world{sim: b.Sim, gens: b.Gens, serverMachines: map[*sim.Machine]bool{},
		trace: b.Trace, conns: b.AggregateConns()}
	for _, f := range b.Cluster.Farms {
		for _, m := range f.Members {
			w.servers = append(w.servers, m.Sys)
			w.serverMachines[m.Host.Machine] = true
			w.nics = append(w.nics, m.Host.NIC)
		}
	}
	for _, c := range b.Cluster.Clients {
		w.clients = append(w.clients, c.Sys)
	}
	w.wire = func() wireStats {
		ss := b.Cluster.Switch.Stats()
		ws := wireStats{frames: ss.RxFrames, forwarded: ss.Forwarded,
			dropped: ss.DropPortDwn + ss.DropNoRoute}
		for _, f := range b.Cluster.Farms {
			l4 := f.Service.Stats()
			ws.dropped += l4.DropNoBackend + l4.DropDown + l4.DropBad
		}
		return ws
	}
	return w, nil
}
