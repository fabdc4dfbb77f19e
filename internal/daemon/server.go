package daemon

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/logging"
	"repro/internal/memnet"
	"repro/internal/qos"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/watch"
)

// maxPooledReply caps the reply buffer a dispatch record keeps between
// calls: a recycled record is kept per processor and through two
// collections, which is right for a few kilobytes and wrong for a bulk
// listing.
const maxPooledReply = 64 << 10

// jumboReply retains the process's one reply buffer above
// maxPooledReply — the inventory or listing of a host with thousands of
// domains, whose size is the same on the next monitoring sweep — for as
// long as such replies keep coming (see rpc.JumboSpare). A second bulk
// reply marshalled at the same time allocates its own; only the larger
// of the two is kept.
var jumboReply rpc.JumboSpare

// Program dispatches the procedures of one protocol program.
type Program interface {
	// ID returns the program number.
	ID() uint32
	// Dispatch executes one procedure and returns the marshalled reply
	// payload, appended to reply (an empty buffer of the server's) or
	// in a buffer of its own. Errors are transported to the client with
	// their core code. The server owns the returned payload and reuses
	// it once the reply is written: implementations must return a buffer
	// they neither retain nor share.
	// The server only passes procedure numbers that have a row in Procs.
	Dispatch(c *Client, proc uint32, payload, reply []byte) ([]byte, error)
	// Procs returns the program's procedure table, indexed by procedure
	// number. The server's read loop takes everything it decides before
	// dispatch from the row: whether the number exists at all, the name
	// for metrics, traces and QoS ACL rules, priority-worker routing,
	// the pre-authentication allowance and the ACL object rule.
	Procs() []rpc.Proc
	// ClientClosed releases any per-client state the program holds.
	ClientClosed(c *Client)
}

// program is a registered Program beside what the read loop derives
// from its table once, at AddProgram.
type program struct {
	Program
	name  string // symbolic program name: metric label, trace field
	procs []rpc.Proc
	stats []atomic.Pointer[procStat] // row for row beside procs; nil when uninstrumented
}

// row returns the table row of a procedure number, nil when the program
// has none.
func (pg *program) row(proc uint32) *rpc.Proc {
	if uint64(proc) >= uint64(len(pg.procs)) || pg.procs[proc].Name == "" {
		return nil
	}
	return &pg.procs[proc]
}

// ServiceConfig describes one listening socket of a server.
type ServiceConfig struct {
	Transport Transport
	AuthSASL  bool // require SASL authentication before dispatch
	ReadOnly  bool // mark clients read-only
}

// ClientLimits are the runtime-adjustable connection limits.
type ClientLimits struct {
	MaxClients       int
	MaxUnauthClients int
}

// Server accepts client connections and dispatches their requests into
// its workerpool. A daemon can host several servers (e.g. the management
// server and the admin server) each with independent limits.
type Server struct {
	name string
	logs *logging.Logger // the daemon's logging settings
	log  *slog.Logger    // module "daemon.server", with the server's name
	pool *Workerpool

	metrics     *telemetry.Registry // nil = uninstrumented
	tracer      *telemetry.Tracer   // nil = untraced
	callTimeout atomic.Int64        // per-call dispatch deadline in nanos; 0 = none

	// Watch-stream subscriber bounds handed to every new subscription
	// (see internal/watch). Resolved values: depth >= 1, coalesce >= 0
	// (0 = coalescing disabled).
	eventQueueDepth atomic.Int64
	eventCoalesce   atomic.Int64 // nanos

	// Admission engine enforced between frame decode and dispatch.
	// Replaced wholesale on config updates; nil = QoS disabled.
	qosEng atomic.Pointer[qos.Engine]

	mu         sync.Mutex
	clients    map[uint64]*Client
	nextClient uint64
	limits     ClientLimits
	programs   map[uint32]*program
	listeners  []net.Listener
	closed     bool
	rejected   uint64

	wg sync.WaitGroup

	// SASL credential store for services requiring authentication.
	creds map[string]string

	applyMu sync.Mutex // serialises Apply and Set
	applied Config     // the Config last applied; Settings reads the live fields back
}

func newServer(name string, pool *Workerpool, limits ClientLimits, logs *logging.Logger) *Server {
	s := &Server{
		name:     name,
		logs:     logs,
		log:      logs.For("daemon.server").With(slog.String("server", name)),
		pool:     pool,
		clients:  make(map[uint64]*Client),
		limits:   limits,
		programs: make(map[uint32]*program),
		creds:    make(map[string]string),
		applied:  DefaultConfig(),
	}
	s.eventQueueDepth.Store(watch.DefaultDepth)
	s.eventCoalesce.Store(int64(watch.DefaultCoalesceWindow))
	return s
}

// Name returns the server name.
func (s *Server) Name() string { return s.name }

// SetQoS installs (or with nil, removes) the admission engine enforced
// between frame decode and dispatch. The engine is swapped atomically;
// in-flight calls admitted under the old engine settle against it, new
// calls resolve classes from the new one. The pool's shed watermark
// follows the engine's.
func (s *Server) SetQoS(eng *qos.Engine) {
	if eng != nil {
		eng.Instrument(s.metrics)
		s.pool.SetShedWatermark(eng.ShedWatermark())
	} else {
		s.pool.SetShedWatermark(0)
	}
	s.qosEng.Store(eng)
}

// QoS returns the installed admission engine (nil = QoS disabled).
func (s *Server) QoS() *qos.Engine { return s.qosEng.Load() }

// SetCallTimeout bounds every dispatched call: a call that has not
// replied within d (queue wait included) is answered with ErrTimedOut;
// its late result, if any, is discarded. Zero disables the bound.
func (s *Server) SetCallTimeout(d time.Duration) { s.callTimeout.Store(int64(d)) }

// CallTimeout returns the per-call dispatch deadline (zero = none).
func (s *Server) CallTimeout() time.Duration { return time.Duration(s.callTimeout.Load()) }

// SetEventStreamConfig adjusts the subscriber-queue bounds applied to
// watch streams opened after the call. depth <= 0 restores the default
// depth; window < 0 restores the default coalesce window, zero disables
// coalescing. Existing subscriptions keep their bounds.
func (s *Server) SetEventStreamConfig(depth int, window time.Duration) {
	if depth <= 0 {
		depth = watch.DefaultDepth
	}
	if window < 0 {
		window = watch.DefaultCoalesceWindow
	}
	s.eventQueueDepth.Store(int64(depth))
	s.eventCoalesce.Store(int64(window))
}

// EventStreamConfig returns the subscriber-queue bounds for new watch
// streams.
func (s *Server) EventStreamConfig() (depth int, window time.Duration) {
	return int(s.eventQueueDepth.Load()), time.Duration(s.eventCoalesce.Load())
}

// Pool exposes the server's workerpool (admin interface).
func (s *Server) Pool() *Workerpool { return s.pool }

// AddProgram registers a protocol program.
func (s *Server) AddProgram(p Program) {
	pg := &program{Program: p, name: rpc.ProgramName(p.ID()), procs: p.Procs()}
	if s.metrics != nil {
		pg.stats = make([]atomic.Pointer[procStat], len(pg.procs))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.programs[p.ID()] = pg
}

// SetCredentials installs the SASL user database for authenticating
// services.
func (s *Server) SetCredentials(creds map[string]string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.creds = make(map[string]string, len(creds))
	for k, v := range creds {
		s.creds[k] = v
	}
}

// Limits returns the current client limits and counts.
func (s *Server) Limits() (limits ClientLimits, current, currentUnauth int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.clients {
		if !c.Authenticated() {
			currentUnauth++
		}
	}
	return s.limits, len(s.clients), currentUnauth
}

// Settings returns the server's Config: the one last applied, with its
// live fields read back from what the server runs now.
func (s *Server) Settings() Config {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	return s.settings()
}

func (s *Server) settings() Config {
	c := s.applied
	p := s.pool.Params()
	c.MinWorkers, c.MaxWorkers, c.PrioWorkers = p.MinWorkers, p.MaxWorkers, p.PrioWorkers
	limits, _, _ := s.Limits()
	c.MaxClients, c.MaxUnauthClients = limits.MaxClients, limits.MaxUnauthClients
	c.LogLevel, c.LogFilters, c.LogOutputs = int(s.logs.Level()), s.logs.FiltersString(), s.logs.OutputsString()
	return c
}

// Apply makes cfg the server's Config. It is the one path from a parsed
// govirtd.conf to a running server, at start-up and for every live
// change: cfg is validated whole, then its live fields are installed,
// all of them or none. They are the workerpool, the client limits, the
// daemon's logging and admission control. Lowered client limits never
// cut existing connections; only new ones see them.
func (s *Server) Apply(cfg Config) error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	return s.apply(cfg)
}

// Set changes live settings by key, each value written as in
// govirtd.conf: every value goes through its row, then the whole Config
// through Apply.
func (s *Server) Set(settings []Setting) error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	cfg := s.settings()
	keys := cfg.Keys(new([]string))
	for _, st := range settings {
		if err := conf.SetLive(keys, st.Key, st.Value); err != nil {
			return fmt.Errorf("daemon: %v", err)
		}
	}
	return s.apply(cfg)
}

func (s *Server) apply(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cur := s.settings()
	// Opening an output's file is the one step Validate cannot vouch for,
	// so it goes first: when it fails, nothing has changed.
	if cfg.LogOutputs != cur.LogOutputs {
		if err := s.logs.DefineOutputs(cfg.LogOutputs); err != nil {
			return fmt.Errorf("daemon: log_outputs: %v", err)
		}
	}
	if err := s.pool.SetParams(cfg.MinWorkers, cfg.MaxWorkers, cfg.PrioWorkers); err != nil {
		return err // a shut-down pool; Validate vouched for the numbers
	}
	s.logs.SetLevel(logging.Priority(cfg.LogLevel)) //nolint:errcheck // the row bounds it
	s.logs.DefineFilters(cfg.LogFilters)            //nolint:errcheck // Validate parsed it
	s.mu.Lock()
	s.limits = ClientLimits{MaxClients: cfg.MaxClients, MaxUnauthClients: cfg.MaxUnauthClients}
	s.mu.Unlock()
	// A new engine starts every class's accounting afresh, so one is
	// built only when admission control itself changes.
	if !slices.Equal(cfg.QoSClasses, cur.QoSClasses) || cfg.QoSShedWatermark != cur.QoSShedWatermark {
		var eng *qos.Engine
		if len(cfg.QoSClasses) > 0 {
			classes, _ := qos.ParseClasses(cfg.QoSClasses) // Validate parsed them
			eng = qos.NewEngine(qos.Config{Classes: classes, ShedWatermark: cfg.QoSShedWatermark})
		}
		s.SetQoS(eng)
		s.logs.For("daemon").LogAttrs(context.TODO(), slog.LevelInfo, "admission control",
			slog.String("server", s.name), slog.Int("classes", len(cfg.QoSClasses)),
			slog.Int("shed_watermark", cfg.QoSShedWatermark))
	}
	s.applied = cfg
	return nil
}

// RejectedCount returns how many connections were refused over limits.
func (s *Server) RejectedCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejected
}

// Clients returns the connected clients sorted by id.
func (s *Server) Clients() []*Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Client, 0, len(s.clients))
	for _, c := range s.clients {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Client looks up a connected client by id.
func (s *Server) Client(id uint64) (*Client, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[id]
	return c, ok
}

// Listen starts accepting connections on the listener with the given
// service configuration. It returns immediately.
func (s *Server) Listen(l net.Listener, cfg ServiceConfig) {
	s.mu.Lock()
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			s.accept(nc, cfg)
		}
	}()
}

// ListenUnix starts a unix-socket service at path.
func (s *Server) ListenUnix(path string, cfg ServiceConfig) error {
	l, err := net.Listen("unix", path)
	if err != nil {
		return fmt.Errorf("daemon: listen unix %s: %w", path, err)
	}
	cfg.Transport = TransportUnix
	s.Listen(l, cfg)
	return nil
}

// ListenMem starts an in-process service on the named memnet endpoint,
// reachable with a "+mem" transport URI whose host is the name. The
// scale harness uses this to run very large simulated fleets without
// consuming sockets or ports; the full RPC stack still runs.
func (s *Server) ListenMem(name string, cfg ServiceConfig) error {
	l, err := memnet.Listen(name)
	if err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	cfg.Transport = TransportMem
	s.Listen(l, cfg)
	return nil
}

// ListenTCP starts a TCP service at addr and returns the bound address
// (useful with ":0").
func (s *Server) ListenTCP(addr string, cfg ServiceConfig) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("daemon: listen tcp %s: %w", addr, err)
	}
	if cfg.Transport == TransportUnix {
		cfg.Transport = TransportTCP
	}
	s.Listen(l, cfg)
	return l.Addr().String(), nil
}

// accept admits or rejects a new connection under the client limits.
func (s *Server) accept(nc net.Conn, cfg ServiceConfig) {
	identity := identityFor(nc, cfg.Transport)
	identity.ReadOnly = cfg.ReadOnly

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	unauth := 0
	for _, c := range s.clients {
		if !c.Authenticated() {
			unauth++
		}
	}
	if len(s.clients) >= s.limits.MaxClients ||
		(cfg.AuthSASL && s.limits.MaxUnauthClients > 0 && unauth >= s.limits.MaxUnauthClients) {
		s.rejected++
		s.mu.Unlock()
		s.log.LogAttrs(context.TODO(), slog.LevelWarn, "connection limit reached, rejecting",
			slog.Any("addr", nc.RemoteAddr()))
		nc.Close()
		return
	}
	s.nextClient++
	client := &Client{
		id:        s.nextClient,
		server:    s,
		conn:      rpc.NewConn(nc),
		identity:  identity,
		connected: time.Now(),
	}
	client.authenticated = !cfg.AuthSASL
	s.clients[client.id] = client
	s.mu.Unlock()
	s.log.LogAttrs(context.TODO(), slog.LevelInfo, "client connected",
		slog.Uint64("client", client.id), slog.String("transport", identity.Transport.String()))

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serveClient(client)
	}()
}

// serveClient reads requests until the connection drops, dispatching
// each into the workerpool. Frames arrive in pooled buffers: branches
// that never reach dispatch release immediately, and dispatched calls
// release as soon as the program's Dispatch returns (Unmarshal copies
// everything it keeps out of the payload).
func (s *Server) serveClient(c *Client) {
	// QoS state is resolved lazily and cached across calls: serveClient
	// is the connection's only reader, so plain locals suffice. The
	// cache invalidates when the engine pointer changes (live config
	// update) or the SASL identity changes (authentication completed).
	var (
		qsEng  *qos.Engine
		qsUser string
		qs     *qos.ClientState
	)
	for {
		f, err := c.conn.ReadFrame()
		if err != nil {
			s.removeClient(c)
			return
		}
		h := f.Header
		if rpc.MsgType(h.Type) == rpc.TypePing {
			f.Release()
			pong := h
			pong.Type = uint32(rpc.TypePong)
			if err := c.Send(pong, nil); err != nil {
				s.log.LogAttrs(context.TODO(), slog.LevelWarn, "send pong",
					slog.Uint64("client", c.id), slog.Any("err", err))
			}
			continue
		}
		if rpc.MsgType(h.Type) != rpc.TypeCall {
			f.Release()
			s.log.LogAttrs(context.TODO(), slog.LevelWarn, "non-call message",
				slog.Uint64("client", c.id), slog.Uint64("type", uint64(h.Type)))
			continue
		}
		s.mu.Lock()
		prog, ok := s.programs[h.Program]
		s.mu.Unlock()
		if !ok {
			f.Release()
			s.replyError(c, h, core.Errorf(core.ErrNoSupport, "unknown program 0x%x", h.Program))
			continue
		}
		if h.Version != rpc.ProtocolVersion {
			f.Release()
			s.replyError(c, h, core.Errorf(core.ErrNoSupport, "unsupported protocol version %d", h.Version))
			continue
		}
		// One indexed lookup yields everything decided before dispatch.
		// The auth gate runs first, so an unauthenticated client cannot
		// probe which numbers exist; an unknown number then costs one
		// error reply — no admission token, no queue slot, no series.
		row := prog.row(h.Procedure)
		authed, saslUser := c.authState()
		if !authed && (row == nil || !row.PreAuth) {
			f.Release()
			s.replyError(c, h, core.Errorf(core.ErrAuthFailed, "authentication required"))
			continue
		}
		if row == nil {
			f.Release()
			if s.metrics != nil {
				s.metrics.Counter("daemon_dispatch_unknown_total").Inc()
			}
			s.replyError(c, h, core.Errorf(core.ErrNoSupport, "unknown procedure %d", h.Procedure))
			continue
		}
		// Admission control: resolve the client's class and apply
		// ACL, rate limit and inflight quota before any resources are
		// committed — a rejected call costs one error reply.
		var cqs *qos.ClientState
		if eng := s.qosEng.Load(); eng != nil {
			if qs == nil || eng != qsEng || saslUser != qsUser {
				qsEng, qsUser = eng, saslUser
				qs = eng.Resolve(saslUser)
			}
			if aerr := qosAdmit(qs, row, f.Payload); aerr != nil {
				f.Release()
				s.replyError(c, h, aerr)
				continue
			}
			cqs = qs
		}
		if spec, ok := faultpoint.Default.Eval("daemon.kill"); ok && spec.Mode == faultpoint.ModeKill {
			f.Release()
			if cqs != nil {
				cqs.EndCall() // the admitted call never dispatches
			}
			s.log.LogAttrs(context.TODO(), slog.LevelWarn, "injected kill")
			go s.Kill()
			return
		}
		rec := callPool.Get().(*call)
		rec.s, rec.c, rec.prog, rec.hdr, rec.frame, rec.cqs = s, c, prog, h, f, cqs
		if rec.st = s.dispatchStat(prog, h.Procedure); rec.st != nil {
			rec.span = s.tracer.Start(prog.name, row.Name, c.id, h.Serial)
		}
		// The dispatch deadline starts now, so time spent queued counts
		// against it — a wedged pool times calls out just like a wedged
		// hypervisor. The replied flag guarantees exactly one reply per
		// serial whichever side (timer or worker) finishes first.
		rec.deadline = nil
		if d := s.CallTimeout(); d > 0 {
			rec.deadline = time.AfterFunc(d, func() {
				if rec.replied.CompareAndSwap(false, true) {
					s.replyError(c, h, core.Errorf(core.ErrTimedOut,
						"call %d exceeded %v dispatch deadline", h.Procedure, d))
				}
			})
		}
		priority := row.Priority
		shedPrio := int8(5)
		var maxWait time.Duration
		if cqs != nil {
			// Control-plane classes ride the priority workers for every
			// procedure, so they stay responsive while ordinary workers
			// are saturated by data-plane tenants.
			priority = priority || cqs.Control()
			shedPrio = cqs.ShedPriority()
			maxWait = cqs.MaxQueueWait()
			cqs.MarkQueued()
		}
		// From here on the record belongs to the pool: a worker may run
		// and recycle it before SubmitQoS returns.
		if err := s.pool.SubmitQoS(rec, priority, shedPrio, maxWait); err != nil {
			f.Release() // the job never ran
			if cqs != nil {
				cqs.MarkDequeued()
				cqs.EndCall()
			}
			if rec.claim() {
				s.replyError(c, h, core.Errorf(core.ErrInternal, "workerpool: %v", err))
			}
			rec.done()
		}
	}
}

// call is the dispatch record of one admitted request. The read loop
// fills it, the workerpool queues it, and a worker runs it, replies and
// recycles it. Everything a call carries from its frame to its reply
// lives here, its trace span and reply buffer included, so once the pool
// is warm a call costs the daemon no allocation of its own.
type call struct {
	s     *Server
	c     *Client
	prog  *program
	hdr   rpc.Header
	frame *rpc.Frame
	cqs   *qos.ClientState // nil when admission control is off
	st    *procStat        // nil when uninstrumented
	span  telemetry.Span   // open while st is set

	// deadline is the dispatch-deadline timer, nil without one or once
	// stopped before it fired. A timer that fired races the worker for
	// the call's one reply through replied, and may still hold the
	// record when the worker is done, so such a record is left to the
	// collector instead of recycled: replied is false in every record
	// the pool hands out.
	deadline *time.Timer
	replied  atomic.Bool

	reply []byte // reply buffer kept across calls, at most maxPooledReply
}

var callPool = sync.Pool{
	New: func() interface{} { return &call{reply: make([]byte, 0, 512)} },
}

// RunQueued implements ShedJob: it dispatches the call and replies, or
// answers a shed call with its rejection.
func (r *call) RunQueued(shed bool, wait time.Duration) {
	s, c := r.s, r.c
	if r.cqs != nil {
		r.cqs.MarkDequeued()
	}
	if shed {
		r.frame.Release()
		var serr error
		if r.cqs != nil {
			serr = r.cqs.RejectShed()
			r.cqs.EndCall()
		} else {
			serr = core.Overloadedf(qos.ShedRetryHint, "queued call shed under overload")
		}
		if r.claim() {
			s.replyError(c, r.hdr, serr)
		}
		r.done()
		return
	}
	start := time.Now()
	reply, err := r.prog.Dispatch(c, r.hdr.Procedure, r.frame.Payload, r.reply[:0])
	r.frame.Release()
	if r.cqs != nil {
		r.cqs.EndCall()
	}
	if st := r.st; st != nil {
		st.calls.Inc()
		st.latency.Observe(time.Since(start))
		if err != nil {
			st.errors.Inc()
		}
		r.span.QueueWait = wait
		r.span.Finish()
	}
	if r.claim() { // else the deadline already answered this serial
		if err != nil {
			s.replyError(c, r.hdr, err)
		} else {
			out := r.hdr
			out.Type = uint32(rpc.TypeReply)
			out.Status = uint32(rpc.StatusOK)
			if err := c.Send(out, reply); err != nil {
				s.log.LogAttrs(context.TODO(), slog.LevelWarn, "send reply",
					slog.Uint64("client", c.id), slog.Any("err", err))
			}
		}
	}
	// Keep the buffer Dispatch answered in for the next call; a jumbo
	// one goes back to the process's one spare instead.
	switch {
	case cap(reply) > maxPooledReply:
		jumboReply.Put(reply)
	case cap(reply) > 0:
		jumboReply.Idle()
		r.reply = reply[:0]
	}
	r.done()
}

// claim reports whether this side owns the call's one reply: always
// without a dispatch deadline, else when it beats the deadline's timer.
func (r *call) claim() bool {
	if r.deadline == nil {
		return true
	}
	if r.deadline.Stop() {
		r.deadline = nil // it will never fire, nor touch the record
		return true
	}
	return r.replied.CompareAndSwap(false, true)
}

// done recycles the record, unless a fired deadline timer may still
// hold it.
func (r *call) done() {
	if r.deadline != nil {
		return
	}
	r.s, r.c, r.prog, r.frame, r.cqs, r.st = nil, nil, nil, nil, nil, nil
	r.span = telemetry.Span{}
	callPool.Put(r)
}

// qosAdmit applies the resolved class's checks to one decoded call, in
// authorization-then-throttle order: ACL (auth handshake procedures are
// exempt, they gate everything else), token-bucket rate limit, inflight
// quota. An ACL object pattern is matched against the leading name of
// procedures whose row says the payload has one, and against no object
// otherwise. On admission the inflight slot is held; every downstream
// path must release it via EndCall.
func qosAdmit(qs *qos.ClientState, row *rpc.Proc, payload []byte) error {
	if qs.HasACL() && !row.PreAuth {
		var obj []byte
		if row.Object && qs.NeedObject() {
			obj, _ = rpc.PeekString(payload)
		}
		if !qs.Allow(row.Name, obj) {
			return qs.RejectACL(row.Name)
		}
	}
	if retry, ok := qs.TakeToken(time.Now()); !ok {
		return qs.RejectRate(retry)
	}
	if !qs.TryInflight() {
		return qs.RejectInflight()
	}
	return nil
}

func (s *Server) replyError(c *Client, h rpc.Header, err error) {
	out := h
	out.Type = uint32(rpc.TypeReply)
	out.Status = uint32(rpc.StatusError)
	var retryMs uint32
	if ra := core.RetryAfterOf(err); ra > 0 {
		// Round up so sub-millisecond hints survive the wire encoding.
		retryMs = uint32((ra + time.Millisecond - 1) / time.Millisecond)
	}
	// The code travels beside the message and clients put it back in
	// front, so an API error sends its message alone.
	msg := err.Error()
	if ce, ok := err.(*core.Error); ok {
		msg = ce.Message
	}
	if serr := c.SendMarshal(out, &rpc.ErrorPayload{
		Code:         uint32(core.CodeOf(err)),
		Message:      msg,
		RetryAfterMs: retryMs,
	}); serr != nil {
		s.log.LogAttrs(context.TODO(), slog.LevelWarn, "send error reply",
			slog.Uint64("client", c.id), slog.Any("err", serr))
	}
}

func (s *Server) removeClient(c *Client) {
	c.Close() //nolint:errcheck
	s.mu.Lock()
	_, present := s.clients[c.id]
	delete(s.clients, c.id)
	programs := make([]*program, 0, len(s.programs))
	for _, p := range s.programs {
		programs = append(programs, p)
	}
	s.mu.Unlock()
	if !present {
		return
	}
	for _, p := range programs {
		p.ClientClosed(c)
	}
	s.log.LogAttrs(context.TODO(), slog.LevelInfo, "client disconnected", slog.Uint64("client", c.id))
}

// Shutdown closes listeners and all client connections and stops the
// workerpool.
func (s *Server) Shutdown() {
	s.shutdown(0)
}

// ShutdownGrace is the graceful stop: listeners close first so no new
// work arrives, then in-flight worker-pool jobs get up to grace to
// finish (and their replies to flush) before client connections drop.
// Grace zero degenerates to Shutdown.
func (s *Server) ShutdownGrace(grace time.Duration) {
	s.shutdown(grace)
}

func (s *Server) shutdown(grace time.Duration) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	listeners := s.listeners
	clients := make([]*Client, 0, len(s.clients))
	for _, c := range s.clients {
		clients = append(clients, c)
	}
	s.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	if grace > 0 {
		if !s.pool.Drain(grace) {
			s.log.LogAttrs(context.TODO(), slog.LevelWarn, "worker pool still busy after grace; dropping remaining work",
				slog.Duration("grace", grace))
		}
	}
	for _, c := range clients {
		c.Close() //nolint:errcheck
	}
	s.wg.Wait()
	s.pool.Shutdown()
}

// Kill is the simulated kill -9: listeners, client connections and the
// worker pool are torn down immediately — no drain, no flushing, queued
// jobs dropped. Unlike Shutdown it does not wait for serving goroutines,
// so it is safe to call from one (the daemon.kill faultpoint does). Only
// state already journalled to the state_dir survives, which is exactly
// what the chaos suite asserts.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	listeners := s.listeners
	clients := make([]*Client, 0, len(s.clients))
	for _, c := range s.clients {
		clients = append(clients, c)
	}
	s.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, c := range clients {
		c.Close() //nolint:errcheck
	}
	s.pool.Shutdown()
}

// Daemon hosts one or more servers plus the shared logging and telemetry
// subsystems.
type Daemon struct {
	log     *logging.Logger
	slow    *slog.Logger        // module "daemon.slowcall"
	metrics *telemetry.Registry // nil = uninstrumented
	tracer  *telemetry.Tracer   // nil = untraced

	mu      sync.Mutex
	servers map[string]*Server
	order   []string

	callTimeout   atomic.Int64 // default dispatch deadline for new servers
	shutdownGrace atomic.Int64 // drain budget used by Shutdown

	eventQueueDepth atomic.Int64 // watch queue depth for new servers
	eventCoalesce   atomic.Int64 // watch coalesce window nanos for new servers
}

// New creates an empty daemon around the given logger, reporting into
// the process-wide telemetry registry.
func New(log *logging.Logger) *Daemon {
	return NewWithTelemetry(log, telemetry.Default)
}

// NewWithTelemetry creates a daemon reporting into the given registry. A
// nil registry disables all instrumentation and tracing — the dispatch
// path then carries no telemetry cost at all (used as the benchmark
// baseline).
func NewWithTelemetry(log *logging.Logger, reg *telemetry.Registry) *Daemon {
	if log == nil {
		log = logging.NewQuiet(logging.Error)
	}
	d := &Daemon{log: log, slow: log.For("daemon.slowcall"), metrics: reg, servers: make(map[string]*Server)}
	d.eventQueueDepth.Store(watch.DefaultDepth)
	d.eventCoalesce.Store(int64(watch.DefaultCoalesceWindow))
	if reg != nil {
		d.tracer = telemetry.NewTracer(slowCallRing, telemetry.DefaultSlowCallThreshold)
		// Slow calls surface as structured warnings under their own
		// module, so the existing log filter machinery controls them.
		d.tracer.OnSlow(func(sc telemetry.SlowCall) {
			d.slow.LogAttrs(context.TODO(), slog.LevelWarn, "slow call",
				slog.String("program", sc.Program), slog.String("proc", sc.Proc),
				slog.Uint64("client", sc.Client), slog.Uint64("serial", uint64(sc.Serial)),
				slog.Duration("queue", sc.QueueWait), slog.Duration("total", sc.Duration))
		})
	}
	return d
}

// Log exposes the daemon's logging subsystem (admin interface).
func (d *Daemon) Log() *logging.Logger { return d.log }

// Metrics exposes the daemon's registry; nil when uninstrumented.
func (d *Daemon) Metrics() *telemetry.Registry { return d.metrics }

// Tracer exposes the daemon's call tracer; nil when uninstrumented.
func (d *Daemon) Tracer() *telemetry.Tracer { return d.tracer }

// AddServer creates a named server with its own workerpool and limits.
func (d *Daemon) AddServer(name string, min, max, prio int, limits ClientLimits) (*Server, error) {
	if name == "" {
		return nil, core.Errorf(core.ErrInvalidArg, "server needs a name")
	}
	pool, err := NewWorkerpool(min, max, prio)
	if err != nil {
		return nil, core.Errorf(core.ErrInvalidArg, "%v", err)
	}
	if limits.MaxClients == 0 {
		limits.MaxClients = 120
	}
	s := newServer(name, pool, limits, d.log)
	s.metrics = d.metrics
	s.tracer = d.tracer
	s.SetCallTimeout(time.Duration(d.callTimeout.Load()))
	s.SetEventStreamConfig(int(d.eventQueueDepth.Load()), time.Duration(d.eventCoalesce.Load()))
	d.mu.Lock()
	if _, dup := d.servers[name]; dup {
		d.mu.Unlock()
		pool.Shutdown()
		return nil, core.Errorf(core.ErrDuplicate, "server %q already exists", name)
	}
	d.servers[name] = s
	d.order = append(d.order, name)
	d.mu.Unlock()
	if d.metrics != nil {
		registerServerMetrics(d.metrics, s)
	}
	return s, nil
}

// Server looks up a server by name.
func (d *Daemon) Server(name string) (*Server, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.servers[name]
	return s, ok
}

// Servers returns the server names in creation order.
func (d *Daemon) Servers() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// SetCallTimeout sets the dispatch deadline applied to every current and
// future server of this daemon. Zero disables it.
func (d *Daemon) SetCallTimeout(timeout time.Duration) {
	d.callTimeout.Store(int64(timeout))
	d.mu.Lock()
	servers := make([]*Server, 0, len(d.servers))
	for _, s := range d.servers {
		servers = append(servers, s)
	}
	d.mu.Unlock()
	for _, s := range servers {
		s.SetCallTimeout(timeout)
	}
}

// SetEventStreamConfig sets the watch-stream subscriber bounds applied
// to every current and future server of this daemon. depth <= 0 and
// window < 0 restore the defaults; window zero disables coalescing.
func (d *Daemon) SetEventStreamConfig(depth int, window time.Duration) {
	if depth <= 0 {
		depth = watch.DefaultDepth
	}
	if window < 0 {
		window = watch.DefaultCoalesceWindow
	}
	d.eventQueueDepth.Store(int64(depth))
	d.eventCoalesce.Store(int64(window))
	d.mu.Lock()
	servers := make([]*Server, 0, len(d.servers))
	for _, s := range d.servers {
		servers = append(servers, s)
	}
	d.mu.Unlock()
	for _, s := range servers {
		s.SetEventStreamConfig(depth, window)
	}
}

// SetShutdownGrace sets how long Shutdown lets in-flight calls drain
// before dropping connections. Zero (the default) shuts down abruptly.
func (d *Daemon) SetShutdownGrace(grace time.Duration) {
	d.shutdownGrace.Store(int64(grace))
}

// Shutdown stops every server, draining in-flight calls for the
// configured grace period first.
func (d *Daemon) Shutdown() {
	grace := time.Duration(d.shutdownGrace.Load())
	d.mu.Lock()
	servers := make([]*Server, 0, len(d.servers))
	for _, s := range d.servers {
		servers = append(servers, s)
	}
	d.mu.Unlock()
	for _, s := range servers {
		s.ShutdownGrace(grace)
	}
}

// Kill tears every server down abruptly — the in-process stand-in for
// kill -9, pairing with state_dir persistence in the chaos suite.
func (d *Daemon) Kill() {
	d.mu.Lock()
	servers := make([]*Server, 0, len(d.servers))
	for _, s := range d.servers {
		servers = append(servers, s)
	}
	d.mu.Unlock()
	for _, s := range servers {
		s.Kill()
	}
}
