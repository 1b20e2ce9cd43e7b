package neat_test

import (
	"strings"
	"testing"

	"neat"
	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/socketlib"
)

// TestPublicAPIRoundTrip exercises the facade the way the quickstart
// example does: boot both machines, run an echo exchange, verify the
// deterministic outcome.
func TestPublicAPIRoundTrip(t *testing.T) {
	net := neat.NewNetwork(123)
	server := neat.NewServerMachine(net, neat.AMD12)
	client := neat.NewClientMachine(net, 1)

	sys, err := neat.StartNEaT(server, client, neat.SystemConfig{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	clisys, err := neat.StartClientSystem(client, server, 1)
	if err != nil {
		t.Fatal(err)
	}

	var echoed string
	srv := apiApp(server.AppThread(5), sys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		ln := lib.Listen(ctx, 4000, 8)
		ln.OnAccept = func(ctx *sim.Context, s *socketlib.Socket) {
			s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
				if len(data) > 0 {
					s.Send(ctx, data)
				}
			}
		}
	})
	srv.Deliver("go")
	net.Sim.RunFor(neat.Millisecond)

	cli := apiApp(client.AppThread(4), clisys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		s := lib.Connect(ctx, neat.IPv4(10, 0, 0, 1), 4000)
		s.OnConnect = func(ctx *sim.Context, err error) {
			if err == nil {
				s.Send(ctx, []byte("roundtrip"))
			}
		}
		s.OnData = func(ctx *sim.Context, data []byte, eof bool) { echoed += string(data) }
	})
	cli.Deliver("go")
	net.Sim.RunFor(50 * neat.Millisecond)

	if echoed != "roundtrip" {
		t.Fatalf("echoed %q", echoed)
	}
	if sys.TotalConns() == 0 {
		t.Fatal("no connection established on the NEaT side")
	}
}

// TestXeonModelAvailable covers the second machine model.
func TestXeonModelAvailable(t *testing.T) {
	net := neat.NewNetwork(5)
	server := neat.NewServerMachine(net, neat.Xeon8x2)
	client := neat.NewClientMachine(net, 1)
	if server.Machine.Core(0).NumThreads() != 2 {
		t.Fatal("Xeon should have 2 hardware threads per core")
	}
	sys, err := neat.StartNEaT(server, client, neat.SystemConfig{
		Replicas: 2, Kind: neat.MultiComponent, TSO: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Replicas()); got != 2 {
		t.Fatalf("replicas=%d", got)
	}
}

// TestSystemConfigValidate covers the consolidated configuration surface:
// the zero value works, and each bad field produces an actionable error.
func TestSystemConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     neat.SystemConfig
		wantErr string // empty = valid
	}{
		{"zero-value-defaults", neat.SystemConfig{}, ""},
		{"full-valid", neat.SystemConfig{Replicas: 8, Kind: neat.MultiComponent,
			FirstCore: 4, TSO: true, Watchdog: true, Observe: true}, ""},
		{"negative-replicas", neat.SystemConfig{Replicas: -1}, "Replicas"},
		{"too-many-replicas", neat.SystemConfig{Replicas: 9}, "queue pairs"},
		{"bad-kind", neat.SystemConfig{Kind: neat.ReplicaKind(7)}, "Kind"},
		{"reserved-core", neat.SystemConfig{FirstCore: 1}, "SYSCALL"},
		{"negative-core", neat.SystemConfig{FirstCore: -2}, "FirstCore"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestStartNEaTRejectsOversizedLayout checks the machine-aware check:
// replicas that do not fit the core count fail with a helpful error
// instead of panicking inside the testbed.
func TestStartNEaTRejectsOversizedLayout(t *testing.T) {
	net := neat.NewNetwork(9)
	server := neat.NewServerMachine(net, neat.AMD12)
	client := neat.NewClientMachine(net, 1)
	// 6 multi-component replicas need cores 2..13 on a 12-core machine.
	_, err := neat.StartNEaT(server, client, neat.SystemConfig{
		Replicas: 6, Kind: neat.MultiComponent,
	})
	if err == nil {
		t.Fatal("StartNEaT accepted 6 multi-component replicas on 12 cores")
	}
	for _, want := range []string{"12 cores", "fewer replicas"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q lacks %q", err, want)
		}
	}
	// Validation errors surface before Validate-clean machine checks too.
	if _, err := neat.StartNEaT(server, client, neat.SystemConfig{Replicas: -3}); err == nil {
		t.Fatal("StartNEaT accepted negative replicas")
	}
}

// TestObservabilityFacade exercises the re-exported observability API the
// way the examples do: metrics registry, trace breakdown, event timeline.
func TestObservabilityFacade(t *testing.T) {
	net := neat.NewNetwork(123)
	server := neat.NewServerMachine(net, neat.AMD12)
	client := neat.NewClientMachine(net, 1)
	sys, err := neat.StartNEaT(server, client, neat.SystemConfig{Replicas: 2, Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	clisys, err := neat.StartClientSystem(client, server, 1)
	if err != nil {
		t.Fatal(err)
	}
	if clisys.Trace() != nil {
		t.Fatal("client system should be untraced (Observe not set)")
	}
	tr := sys.Trace()
	if tr == nil {
		t.Fatal("Observe: true but System.Trace() is nil")
	}

	srv := apiApp(server.AppThread(5), sys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		ln := lib.Listen(ctx, 4000, 8)
		ln.OnAccept = func(ctx *sim.Context, s *socketlib.Socket) {
			s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
				if len(data) > 0 {
					s.Send(ctx, data)
				}
			}
		}
	})
	srv.Deliver("go")
	net.Sim.RunFor(neat.Millisecond)
	cli := apiApp(client.AppThread(4), clisys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		s := lib.Connect(ctx, neat.IPv4(10, 0, 0, 1), 4000)
		s.OnConnect = func(ctx *sim.Context, err error) {
			if err == nil {
				s.Send(ctx, []byte("ping"))
			}
		}
	})
	cli.Deliver("go")
	net.Sim.RunFor(50 * neat.Millisecond)

	reg := sys.Metrics()
	if reg.Counter("nic.rx_frames").Value() == 0 {
		t.Fatal("nic.rx_frames is zero after a TCP exchange")
	}
	if reg.Counter("syscall.listens").Value() == 0 {
		t.Fatal("syscall.listens is zero after Listen")
	}
	if reg.Gauge("core.replicas_active").Value() != 2 {
		t.Fatalf("core.replicas_active=%v", reg.Gauge("core.replicas_active").Value())
	}
	if reg.String() == "" {
		t.Fatal("empty registry dump")
	}

	var bd neat.Breakdown = tr.Breakdown().Filter("amd.")
	if len(bd) == 0 {
		t.Fatal("empty server-side breakdown after traffic")
	}
	var total uint64
	for _, sp := range bd {
		total += sp.Count
	}
	if total == 0 {
		t.Fatal("breakdown spans carry no messages")
	}
	events := tr.Events()
	if len(events) == 0 || !strings.Contains(neat.Timeline(events, "t").String(), "spawn") {
		t.Fatalf("lifecycle timeline lacks the boot spawns: %v", events)
	}
}

// TestClusterConfigValidate covers the declarative topology surface: the
// minimal config builds, and each bad field produces an actionable error.
func TestClusterConfigValidate(t *testing.T) {
	farm := func(name string) []neat.FarmConfig {
		return []neat.FarmConfig{{Name: name, Members: 1}}
	}
	clients := []neat.ClientConfig{{}}
	cases := []struct {
		name    string
		cfg     neat.ClusterConfig
		wantErr string // empty = valid
	}{
		{"minimal", neat.ClusterConfig{Farms: farm("web"), Clients: clients}, ""},
		{"no-farms", neat.ClusterConfig{Clients: clients}, "farm"},
		{"no-clients", neat.ClusterConfig{Farms: farm("web")}, "client"},
		{"negative-workers", neat.ClusterConfig{Farms: farm("web"), Clients: clients,
			PDESWorkers: -1}, "PDESWorkers"},
		{"nondeterministic-steering", neat.ClusterConfig{
			Farms: []neat.FarmConfig{{Name: "web", Members: 2,
				Steering: neat.SteeringConfig{Policy: "least-loaded"}}},
			Clients: clients}, "deterministic"},
		{"ghost-tenant", neat.ClusterConfig{Farms: farm("web"),
			Clients: []neat.ClientConfig{{Tenant: "ghost"}}}, "tenant"},
		{"bad-member-system", neat.ClusterConfig{
			Farms:   []neat.FarmConfig{{Name: "web", Members: 1, System: neat.SystemConfig{Replicas: 9}}},
			Clients: clients}, "queue pairs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestClusterFacadeRoundTrip drives a connection through the whole
// declarative topology: client machine → access link → switch L4 service
// → a farm member's NEaT stack → echo app, with the reply returning
// direct-server-return.
func TestClusterFacadeRoundTrip(t *testing.T) {
	cluster, err := neat.ClusterConfig{
		Farms:   []neat.FarmConfig{{Name: "web", Members: 2}},
		Clients: []neat.ClientConfig{{}},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	farm := cluster.Farm("web")
	if farm == nil || len(farm.Members) != 2 {
		t.Fatalf("farm missing or wrong size: %+v", farm)
	}

	// An echo server on every member (any of them may get the flow).
	for _, m := range farm.Members {
		srv := apiApp(m.Host.AppThread(5), m.Sys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
			ln := lib.Listen(ctx, 4000, 8)
			ln.OnAccept = func(ctx *sim.Context, s *socketlib.Socket) {
				s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
					if len(data) > 0 {
						s.Send(ctx, data)
					}
				}
			}
		})
		srv.Deliver("go")
	}
	cluster.Sim.RunFor(neat.Millisecond)

	var echoed string
	cl := cluster.Clients[0]
	cli := apiApp(cl.Host.AppThread(4), cl.Sys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		s := lib.Connect(ctx, farm.VIP, 4000)
		s.OnConnect = func(ctx *sim.Context, err error) {
			if err == nil {
				s.Send(ctx, []byte("roundtrip"))
			}
		}
		s.OnData = func(ctx *sim.Context, data []byte, eof bool) { echoed += string(data) }
	})
	cli.Deliver("go")
	cluster.Sim.RunFor(50 * neat.Millisecond)

	if echoed != "roundtrip" {
		t.Fatalf("echoed %q", echoed)
	}
	if st := farm.Service.Stats(); st.NewFlows == 0 {
		t.Fatalf("the L4 service placed no flows: %+v", st)
	}
	if conns := farm.Members[0].Sys.TotalConns() + farm.Members[1].Sys.TotalConns(); conns == 0 {
		t.Fatal("no connection established on any farm member")
	}
}

// TestEchoRepliesSurviveBufferRecycling pins the receive-side ownership
// contract: OnData's bytes are recycled as soon as the callback returns,
// so a server that echoes them with Socket.Send relies on Send copying
// them. Many concurrent conversations keep the stack's buffer pools
// busy, and every connection sends bytes no other connection sends, so
// a reply assembled from a recycled buffer shows up as a mismatch.
func TestEchoRepliesSurviveBufferRecycling(t *testing.T) {
	const conns, rounds = 64, 8
	net := neat.NewNetwork(99)
	server := neat.NewServerMachine(net, neat.AMD12)
	client := neat.NewClientMachine(net, 1)
	sys, err := neat.StartNEaT(server, client, neat.SystemConfig{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	clisys, err := neat.StartClientSystem(client, server, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := apiApp(server.AppThread(5), sys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		ln := lib.Listen(ctx, 4000, conns)
		ln.OnAccept = func(ctx *sim.Context, s *socketlib.Socket) {
			s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
				if len(data) > 0 {
					s.Send(ctx, data)
				}
			}
		}
	})
	srv.Deliver("go")
	net.Sim.RunFor(neat.Millisecond)

	// message is connection i's round-r payload: 300–1000 bytes whose
	// content depends on both i and r.
	message := func(i, r int) []byte {
		b := make([]byte, 300+(i*37+r*101)%700)
		for k := range b {
			b[k] = byte(i*131 + r*17 + k)
		}
		return b
	}
	var completed, mismatched int
	cli := apiApp(client.AppThread(4), clisys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		for i := 0; i < conns; i++ {
			i := i
			round := 0
			var got []byte
			s := lib.Connect(ctx, neat.IPv4(10, 0, 0, 1), 4000)
			s.OnConnect = func(ctx *sim.Context, err error) {
				if err == nil {
					s.Send(ctx, message(i, round))
				}
			}
			s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
				got = append(got, data...)
				want := message(i, round)
				if len(got) < len(want) {
					return
				}
				if string(got) != string(want) {
					mismatched++
				}
				completed++
				got = got[:0]
				if round++; round < rounds {
					s.Send(ctx, message(i, round))
				} else {
					s.Close(ctx)
				}
			}
		}
	})
	cli.Deliver("go")
	net.Sim.RunFor(200 * neat.Millisecond)

	if mismatched != 0 {
		t.Fatalf("%d of %d echoed messages came back corrupted", mismatched, completed)
	}
	if completed != conns*rounds {
		t.Fatalf("completed %d of %d rounds", completed, conns*rounds)
	}
}

// apiApp builds a minimal event-driven app process around a socket lib.
func apiApp(th *sim.HWThread, syscall *sim.Proc, start func(*sim.Context, *socketlib.Lib)) *sim.Proc {
	var lib *socketlib.Lib
	proc := sim.NewProc(th, "api-app", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		ctx.Charge(300)
		if lib.HandleEvent(ctx, msg) {
			return
		}
		if msg == "go" {
			start(ctx, lib)
		}
	}), sim.ProcConfig{})
	lib = socketlib.New(proc, syscall, ipc.DefaultCosts())
	return proc
}
