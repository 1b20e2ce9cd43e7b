package app

import (
	"bytes"

	"neat/internal/bufpool"
	"neat/internal/ipc"
	"neat/internal/metrics"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/socketlib"
)

// EchoConfig configures an echo responder: every byte received on a
// connection is sent straight back on the same connection. Together with
// the Talker below it forms a conversation workload — many request/reply
// rounds on one long-lived connection — whose traffic shape differs from
// the HTTP pairs in this package: tiny symmetric messages, no framing
// headers, and connection lifetimes measured in rounds rather than
// requests.
type EchoConfig struct {
	Port    uint16
	Backlog int
	// CyclesPerKB is the application cost of echoing 1 KiB (default 2000).
	CyclesPerKB int64
}

// EchoStats counts echo-server activity.
type EchoStats struct {
	Accepted uint64
	BytesIn  uint64
	BytesOut uint64
	Resets   uint64
	Closed   uint64
}

// EchoServer is one echo responder process.
type EchoServer struct {
	proc  *sim.Proc
	lib   *socketlib.Lib
	cfg   EchoConfig
	ready bool
	stats EchoStats
	arena bufpool.Arena
}

type echoConn struct {
	srv  *EchoServer
	sock *socketlib.Socket
	// pending buffers echo bytes that found no send space; flushed from
	// OnSendSpace.
	pending []byte
	done    bool
}

type echoStartMsg struct{}

// NewEchoServer creates an echo responder on thread th. Call Start to
// listen.
func NewEchoServer(th *sim.HWThread, name string, syscallProc *sim.Proc, ipcCosts ipc.Costs, cfg EchoConfig) *EchoServer {
	if cfg.Backlog == 0 {
		cfg.Backlog = 1024
	}
	if cfg.CyclesPerKB == 0 {
		cfg.CyclesPerKB = 2000
	}
	s := &EchoServer{cfg: cfg}
	s.proc = sim.NewProc(th, name, s, sim.ProcConfig{
		Component: "app", WakeCycles: 1400, HaltCycles: 900, DispatchCycles: 60,
	})
	s.lib = socketlib.New(s.proc, syscallProc, ipcCosts)
	return s
}

// Proc returns the server process.
func (s *EchoServer) Proc() *sim.Proc { return s.proc }

// Ready reports whether the listen completed.
func (s *EchoServer) Ready() bool { return s.ready }

// Stats returns a snapshot of the counters.
func (s *EchoServer) Stats() EchoStats { return s.stats }

// Start begins listening.
func (s *EchoServer) Start() { s.proc.Deliver(echoStartMsg{}) }

// HandleMessage implements sim.Handler.
func (s *EchoServer) HandleMessage(ctx *sim.Context, msg sim.Message) {
	if s.lib.HandleEvent(ctx, msg) {
		return
	}
	if _, ok := msg.(echoStartMsg); ok {
		ln := s.lib.Listen(ctx, s.cfg.Port, s.cfg.Backlog)
		ln.OnReady = func(ctx *sim.Context, err error) { s.ready = err == nil }
		ln.OnAccept = s.accept
	}
}

func (s *EchoServer) accept(ctx *sim.Context, sock *socketlib.Socket) {
	s.stats.Accepted++
	c := &echoConn{srv: s, sock: sock}
	sock.Ctx = c
	sock.OnData = c.onData
	sock.OnSendSpace = func(ctx *sim.Context, avail int) { c.flush(ctx) }
	sock.OnClosed = func(ctx *sim.Context, reset bool, err error) {
		if reset {
			s.stats.Resets++
		}
		s.stats.Closed++
		c.done = true
	}
}

func (c *echoConn) onData(ctx *sim.Context, data []byte, eof bool) {
	s := c.srv
	if !c.done && len(data) > 0 {
		s.stats.BytesIn += uint64(len(data))
		ctx.Charge(s.cfg.CyclesPerKB * int64(len(data)) / 1024)
		c.pending = append(c.pending, data...)
		c.flush(ctx)
	}
	if eof && !c.done {
		// Peer finished talking; echo whatever is left and close our half.
		c.done = len(c.pending) == 0
		if c.done {
			c.sock.Close(ctx)
		}
	}
}

// flush sends as much pending echo data as the socket's credit allows.
func (c *echoConn) flush(ctx *sim.Context) {
	s := c.srv
	for len(c.pending) > 0 {
		n := c.sock.Credit()
		if n == 0 {
			return
		}
		if n > len(c.pending) {
			n = len(c.pending)
		}
		ref := s.arena.Alloc(n)
		copy(ref.B, c.pending)
		c.sock.SendRef(ctx, ref)
		s.stats.BytesOut += uint64(n)
		c.pending = c.pending[n:]
	}
	c.pending = nil
}

// TalkerConfig configures a conversation client: each connection carries
// Rounds request/reply exchanges of MsgSize bytes before the client closes
// it and opens a replacement.
type TalkerConfig struct {
	Target proto.Addr
	Port   uint16
	// Conns is the number of concurrent conversations kept open.
	Conns int
	// Rounds per connection (the conversation length, default 16).
	Rounds int
	// MsgSize bytes per round in each direction (default 256).
	MsgSize int
	// ThinkTime pauses between receiving an echo and sending the next
	// round (0 = closed loop).
	ThinkTime sim.Time
	// Timeout aborts a round that got no full echo (default 2 s).
	Timeout sim.Time
	// CyclesPerRound is the client-side application cost.
	CyclesPerRound int64
}

// TalkerStats is the conversation-client report.
type TalkerStats struct {
	ConnsOpened     uint64
	SessionsDone    uint64 // conversations that completed every round
	RoundsCompleted uint64
	BytesIn         uint64
	Mismatches      uint64 // echoed payload differed from what was sent
	Errors          uint64 // timeouts + resets + failed connects
}

// Talker is one conversation-client process.
type Talker struct {
	proc *sim.Proc
	lib  *socketlib.Lib
	cfg  TalkerConfig

	stats   TalkerStats
	latency metrics.Histogram // per-round echo latency
	running bool
	gen     uint64
	pattern []byte // the message every round sends (and expects back)
	arena   bufpool.Arena
}

type talkConn struct {
	tk    *Talker
	sock  *socketlib.Socket
	gen   uint64
	round int // completed rounds
	got   int // bytes of the current round's echo received
	bad   bool
	start sim.Time
	timer sim.Timer // the round timeout, re-armed in place every round
	done  bool
}

type talkTimeout struct {
	c     *talkConn
	round int
}

type talkThinkDone struct {
	c     *talkConn
	round int
}

type talkStart struct{}
type talkStop struct{}

// NewTalker creates a conversation client on thread th.
func NewTalker(th *sim.HWThread, name string, syscallProc *sim.Proc, ipcCosts ipc.Costs, cfg TalkerConfig) *Talker {
	if cfg.Conns == 0 {
		cfg.Conns = 8
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 16
	}
	if cfg.MsgSize == 0 {
		cfg.MsgSize = 256
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * sim.Second
	}
	if cfg.CyclesPerRound == 0 {
		cfg.CyclesPerRound = 1500
	}
	tk := &Talker{cfg: cfg, pattern: SyntheticBody(cfg.MsgSize)}
	tk.proc = sim.NewProc(th, name, tk, sim.ProcConfig{
		Component: "app", WakeCycles: 1400, HaltCycles: 900, DispatchCycles: 60,
	})
	tk.lib = socketlib.New(tk.proc, syscallProc, ipcCosts)
	return tk
}

// Proc returns the client process.
func (tk *Talker) Proc() *sim.Proc { return tk.proc }

// Start opens the configured number of conversations.
func (tk *Talker) Start() { tk.proc.Deliver(talkStart{}) }

// Stop ceases opening replacement conversations.
func (tk *Talker) Stop() { tk.proc.Deliver(talkStop{}) }

// Stats returns a snapshot of the counters.
func (tk *Talker) Stats() TalkerStats { return tk.stats }

// Latency returns the per-round echo-latency histogram.
func (tk *Talker) Latency() *metrics.Histogram { return &tk.latency }

// HandleMessage implements sim.Handler.
func (tk *Talker) HandleMessage(ctx *sim.Context, msg sim.Message) {
	if tk.lib.HandleEvent(ctx, msg) {
		return
	}
	switch m := msg.(type) {
	case talkStart:
		tk.running = true
		for i := 0; i < tk.cfg.Conns; i++ {
			tk.openConn(ctx)
		}
	case talkStop:
		tk.running = false
	case talkTimeout:
		if m.c.round == m.round && !m.c.done {
			tk.connError(ctx, m.c)
		}
	case talkThinkDone:
		if m.c.round == m.round && !m.c.done {
			tk.sendRound(ctx, m.c)
		}
	}
}

func (tk *Talker) openConn(ctx *sim.Context) {
	if !tk.running {
		return
	}
	tk.gen++
	tk.stats.ConnsOpened++
	c := &talkConn{tk: tk, gen: tk.gen}
	s := tk.lib.Connect(ctx, tk.cfg.Target, tk.cfg.Port)
	c.sock = s
	s.Ctx = c
	s.OnConnect = func(ctx *sim.Context, err error) {
		if err != nil {
			tk.connError(ctx, c)
			return
		}
		tk.sendRound(ctx, c)
	}
	s.OnData = func(ctx *sim.Context, data []byte, eof bool) { tk.onData(ctx, c, data, eof) }
	s.OnClosed = func(ctx *sim.Context, reset bool, err error) {
		if !c.done {
			tk.connError(ctx, c)
		}
	}
}

// sendRound sends one message and waits for its echo.
func (tk *Talker) sendRound(ctx *sim.Context, c *talkConn) {
	ctx.Charge(tk.cfg.CyclesPerRound)
	c.got = 0
	c.bad = false
	c.start = ctx.Sim.Now()
	ref := tk.arena.Alloc(len(tk.pattern))
	copy(ref.B, tk.pattern)
	c.sock.SendRef(ctx, ref)
	ctx.Retimer(&c.timer, tk.cfg.Timeout, talkTimeout{c: c, round: c.round})
}

// onData consumes echo bytes; a full message completes the round.
func (tk *Talker) onData(ctx *sim.Context, c *talkConn, data []byte, eof bool) {
	for len(data) > 0 && !c.done {
		n := len(tk.pattern) - c.got
		if n > len(data) {
			n = len(data)
		}
		if !bytes.Equal(data[:n], tk.pattern[c.got:c.got+n]) {
			c.bad = true
		}
		c.got += n
		tk.stats.BytesIn += uint64(n)
		data = data[n:]
		if c.got < len(tk.pattern) {
			break
		}
		tk.completeRound(ctx, c)
	}
	if eof && !c.done {
		tk.connError(ctx, c)
	}
}

// completeRound accounts one echoed message and advances the conversation.
func (tk *Talker) completeRound(ctx *sim.Context, c *talkConn) {
	ctx.Charge(tk.cfg.CyclesPerRound / 2)
	ctx.StopTimer(&c.timer)
	if c.bad {
		tk.stats.Mismatches++
	}
	tk.stats.RoundsCompleted++
	tk.latency.Observe(ctx.Sim.Now() - c.start)
	c.round++
	if c.round >= tk.cfg.Rounds {
		// Conversation over: the client owns the close.
		c.done = true
		tk.stats.SessionsDone++
		c.sock.Close(ctx)
		tk.openConn(ctx)
		return
	}
	if tk.cfg.ThinkTime > 0 {
		ctx.TimerAfter(tk.cfg.ThinkTime, talkThinkDone{c: c, round: c.round})
		return
	}
	tk.sendRound(ctx, c)
}

// connError aborts and replaces a failed conversation.
func (tk *Talker) connError(ctx *sim.Context, c *talkConn) {
	if c.done {
		return
	}
	c.done = true
	tk.stats.Errors++
	ctx.StopTimer(&c.timer)
	if c.sock.State() == socketlib.SockOpen {
		c.sock.Abort(ctx)
	}
	tk.openConn(ctx)
}
