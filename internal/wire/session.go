package wire

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"femtoverse/internal/domain"
	"femtoverse/internal/fault"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/obs"
)

// Options configures a coordinator Session.
type Options struct {
	// Grid is the process grid; its volume is the worker count.
	Grid [lattice.NDim]int
	// Mass is the Wilson mass parameter.
	Mass float64
	// Listen is the coordinator's listen address (default 127.0.0.1:0).
	Listen string
	// Coarse batches all faces per neighbor into one frame; Staged
	// computes the interior before posting sends. The four combinations
	// are the comms policy space made real.
	Coarse, Staged bool
	// Timing holds every deadline/backoff knob (zero fields defaulted).
	Timing Timing
	// MaxPayload bounds any frame payload (default 64 MiB).
	MaxPayload int
	// CheckpointPath is where subdomain specs are checkpointed; rank
	// recovery restores from this file. Required.
	CheckpointPath string
	// Chaos is the network fault plan (zero plan: no injection).
	Chaos fault.Plan
	// Metrics, when non-nil, receives the session's counters.
	Metrics *obs.Registry
	// Scope, when enabled, receives halo-exchange spans.
	Scope obs.Scope
	// Spawn launches one worker process (or goroutine) pointed at the
	// coordinator address. Called once per rank at startup and once per
	// recovery. Required.
	Spawn func(coordAddr string) error
}

// maxApplyRetries bounds the recovery-and-retry rounds per application
// and the stabilization attempts per recovery.
const maxApplyRetries = 5

// resultMsg is one worker result routed to the apply loop. The result
// field itself is already in the rank's subdomain by the time this is
// posted: the rank's reader decodes it there off the connection's read
// buffer.
type resultMsg struct {
	rank   int
	xid    uint64
	stats  resultStats
	errstr string // the worker's failure, if it reported one
	err    error  // a result the coordinator could not decode
}

// deathNotice announces one declared death. gen is the generation that
// died: a notice is news only while that is still the rank's current
// generation - once the rank has been reassigned, it is history.
type deathNotice struct {
	rank, gen int
}

// ackMsg is one peer-rewiring acknowledgment.
type ackMsg struct {
	rank  int
	epoch uint64
}

// pendingWorker is an accepted connection that has said hello but has no
// rank yet; assignment pulls from this pool, so respawned processes slot
// into whichever rank needs recovering.
type pendingWorker struct {
	conn     *Conn
	peerAddr string
}

// remoteRank is the coordinator's view of one worker.
type remoteRank struct {
	conn     *Conn
	peerAddr string
	gen      int // bumped per assignment so stale readers can't kill successors
	alive    bool
	lastBeat time.Time
}

// Session coordinates N worker processes into one distributed Wilson
// operator. It implements solver.Linear: Apply scatters the source,
// ships per-rank slices to the workers, lets them exchange halos
// peer-to-peer, and gathers the results - all solver arithmetic stays on
// the coordinator, so a distributed solve is bit-for-bit the
// single-process solve as long as every rank computes its subdomain
// exactly, which the shared domain.Sub kernel guarantees.
type Session struct {
	opts   Options
	timing Timing
	chaos  *Chaos
	n      int
	size   int
	subs   []*domain.Sub

	ln      net.Listener
	epoch   atomic.Uint64
	pending chan *pendingWorker
	results chan resultMsg
	peersOK chan ackMsg
	deadCh  chan deathNotice
	stats   Stats
	met     sessionMetrics

	// Apply-loop scratch, reused by every attempt: one caller at a time
	// drives a session, as the shared subdomains have always required.
	xid        uint64
	conns      []*Conn
	got        []bool
	applyTimer *time.Timer

	mu      sync.Mutex
	workers []*remoteRank
	closed  bool
	// curXid is the request in flight: a rank's reader decodes a result
	// into the rank's subdomain only while the result answers it.
	curXid uint64
}

// sessionMetrics holds the counters an application touches, resolved
// once: a registry lookup per count would put a lock, and for the
// per-rank names a formatted string, on every apply. All nil (no-ops)
// without a registry.
type sessionMetrics struct {
	// applies counts operator applications (stencil stages), requests the
	// coordinator round trips that carried them: a normal apply is two
	// of the former in one of the latter.
	applies, requests, resultsDropped *obs.Counter
	// total is the fleet aggregate, rank[r] the per-rank breakdown.
	total haloCounters
	rank  []haloCounters
	// Where an application's time went (ns): the coordinator's three
	// phases partition the apply, the workers' six are summed over ranks.
	scatterSend, resultWait, gather                               *obs.Counter
	decode, packSend, interior, ghostWait, boundary, encodeResult *obs.Counter
}

type haloCounters struct {
	frames, bytes, resends, corrupts *obs.Counter
}

// newHaloCounters resolves one rank's counters, or the fleet aggregate's
// for rank < 0.
func newHaloCounters(reg *obs.Registry, rank int) haloCounters {
	name := func(base string) string {
		if rank < 0 {
			return base
		}
		return obs.RankMetric(base, rank)
	}
	return haloCounters{
		frames:   reg.Counter(name("wire.halo_frames")),
		bytes:    reg.Counter(name("wire.halo_wire_bytes")),
		resends:  reg.Counter(name("wire.resends")),
		corrupts: reg.Counter(name("wire.corrupt_frames")),
	}
}

func newSessionMetrics(reg *obs.Registry, ranks int) sessionMetrics {
	m := sessionMetrics{
		applies:        reg.Counter("wire.applies"),
		requests:       reg.Counter("wire.requests"),
		resultsDropped: reg.Counter("wire.results_dropped"),
		total:          newHaloCounters(reg, -1),
		scatterSend:    reg.Counter("wire.time.coord_scatter_send_ns"),
		resultWait:     reg.Counter("wire.time.coord_result_wait_ns"),
		gather:         reg.Counter("wire.time.coord_gather_ns"),
		decode:         reg.Counter("wire.time.worker_decode_ns"),
		packSend:       reg.Counter("wire.time.worker_pack_send_ns"),
		interior:       reg.Counter("wire.time.worker_interior_ns"),
		ghostWait:      reg.Counter("wire.time.worker_ghost_wait_ns"),
		boundary:       reg.Counter("wire.time.worker_boundary_ns"),
		encodeResult:   reg.Counter("wire.time.worker_encode_ns"),
	}
	for r := 0; r < ranks; r++ {
		m.rank = append(m.rank, newHaloCounters(reg, r))
	}
	return m
}

// NewSession decomposes the gauge field, checkpoints the subdomains,
// spawns the workers, and wires the first epoch. On return every rank is
// connected, peered, and ready to apply.
func NewSession(u *gauge.Field, opts Options) (*Session, error) {
	if opts.Spawn == nil {
		return nil, fmt.Errorf("wire: Options.Spawn is required")
	}
	if opts.CheckpointPath == "" {
		return nil, fmt.Errorf("wire: Options.CheckpointPath is required")
	}
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	if opts.MaxPayload <= 0 {
		opts.MaxPayload = 64 << 20
	}
	chaos, err := NewChaos(opts.Chaos)
	if err != nil {
		return nil, err
	}
	specs, err := domain.BuildSpecs(u, opts.Grid, opts.Mass)
	if err != nil {
		return nil, err
	}
	if err := SaveCheckpoint(opts.CheckpointPath, specs); err != nil {
		return nil, fmt.Errorf("wire: checkpointing subdomains: %w", err)
	}
	s := &Session{
		opts:    opts,
		timing:  opts.Timing.WithDefaults(),
		chaos:   chaos,
		n:       len(specs),
		size:    u.G.Vol * spinorComplexLen,
		pending: make(chan *pendingWorker, 2*len(specs)),
		// A rank's reader admits one result per attempt (the one that
		// answers curXid), so an application's whole retry budget fits;
		// postResult counts what does not.
		results: make(chan resultMsg, (maxApplyRetries+1)*len(specs)),
		peersOK: make(chan ackMsg, 16*len(specs)),
		deadCh:  make(chan deathNotice, 16*len(specs)),
		workers: make([]*remoteRank, len(specs)),
		met:     newSessionMetrics(opts.Metrics, len(specs)),
		conns:   make([]*Conn, len(specs)),
		got:     make([]bool, len(specs)),
	}
	s.applyTimer = time.NewTimer(time.Hour)
	s.applyTimer.Stop()
	for r := range specs {
		sub, err := domain.NewSub(specs[r])
		if err != nil {
			return nil, err
		}
		s.subs = append(s.subs, sub)
		s.workers[r] = &remoteRank{}
	}
	s.ln, err = net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, err
	}
	go s.acceptLoop()

	for r := 0; r < s.n; r++ {
		if err := opts.Spawn(s.Addr()); err != nil {
			closeQuiet(s.ln)
			return nil, fmt.Errorf("wire: spawning worker %d: %w", r, err)
		}
		if err := s.assignRank(r); err != nil {
			closeQuiet(s.ln)
			return nil, err
		}
	}
	go s.monitorBeats()
	if err := s.stabilize(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// spinorComplexLen mirrors the domain package's 12 complex per site.
const spinorComplexLen = 12

// Addr returns the coordinator's dialable address.
func (s *Session) Addr() string { return s.ln.Addr().String() }

// Ranks returns the worker count.
func (s *Session) Ranks() int { return s.n }

// Size implements solver.Linear.
func (s *Session) Size() int { return s.size }

// Close tears the session down; workers observe the closed control links
// and exit cleanly.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*Conn, 0, s.n)
	for _, w := range s.workers {
		if w.conn != nil {
			conns = append(conns, w.conn)
		}
	}
	s.mu.Unlock()
	closeQuiet(s.ln)
	for _, c := range conns {
		closeQuiet(c)
	}
}

// count bumps a counter if a registry is attached.
func (s *Session) count(name string, n int64) {
	if s.opts.Metrics == nil || n == 0 {
		return
	}
	s.opts.Metrics.Counter(name).Add(n)
}

// acceptLoop admits worker connections: each newcomer's hello (carrying
// its peer-listener address) parks it in the pending pool until a rank
// needs filling.
func (s *Session) acceptLoop() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		go func(nc net.Conn) {
			c := newConn(nc, 0, 0, nil, s.timing, helloMaxPayload, nil, &s.stats)
			hello, err := c.Recv(0)
			if err != nil || hello.Type != MsgHello {
				closeQuiet(c)
				return
			}
			select {
			case s.pending <- &pendingWorker{conn: c, peerAddr: string(hello.Payload)}:
			default:
				closeQuiet(c)
			}
		}(nc)
	}
}

// assignRank binds the next pending worker to rank r: welcome (rank +
// session config), subdomain restore from the checkpoint, reader start.
func (s *Session) assignRank(r int) error {
	var pw *pendingWorker
	select {
	case pw = <-s.pending:
	case <-time.After(s.timing.DialTimeout + s.timing.IOTimeout):
		return fmt.Errorf("wire: no worker volunteered for rank %d", r)
	}
	cfg := welcomeConfig{
		NRanks:     s.n,
		MaxPayload: s.opts.MaxPayload,
		Plan:       s.opts.Chaos,
		Timing:     s.timing,
	}
	welcome := &Frame{Type: MsgWelcome, Rank: r, Xid: s.epoch.Load(), Payload: encodeWelcome(cfg)}
	if err := pw.conn.Send(welcome, 0); err != nil {
		closeQuiet(pw.conn)
		return err
	}
	// Restore the subdomain from the durable checkpoint - the recovery
	// path and the startup path are deliberately the same code.
	specs, err := LoadCheckpoint(s.opts.CheckpointPath)
	if err != nil {
		closeQuiet(pw.conn)
		return err
	}
	if r >= len(specs) {
		closeQuiet(pw.conn)
		return fmt.Errorf("wire: checkpoint has %d ranks, need rank %d", len(specs), r)
	}
	specBytes, err := EncodeSpec(&specs[r])
	if err != nil {
		closeQuiet(pw.conn)
		return err
	}
	sub := &Frame{Type: MsgSub, Rank: CoordRank, Xid: s.epoch.Load(), Payload: specBytes}
	if err := pw.conn.Send(sub, 0); err != nil {
		closeQuiet(pw.conn)
		return err
	}
	pw.conn.arm(fault.LinkKey(CoordRank, r), fault.LinkKey(CoordRank, r),
		s.chaos, s.timing, s.opts.MaxPayload, s.epoch.Load)

	s.mu.Lock()
	w := s.workers[r]
	w.conn = pw.conn
	w.peerAddr = pw.peerAddr
	w.gen++
	w.alive = true
	w.lastBeat = time.Now()
	gen := w.gen
	s.mu.Unlock()
	go s.readRank(r, gen, pw.conn)
	return nil
}

// readRank drains one worker's control link, routing beats, acks and
// results. A link error is the fast death path: a crashed process closes
// its sockets, so the EOF lands here long before the heartbeat window
// expires.
func (s *Session) readRank(r, gen int, c *Conn) {
	for {
		f, err := c.Recv(peerIdleTimeout)
		if err != nil {
			if isTimeout(err) {
				continue
			}
			s.declareDead(r, gen, err)
			return
		}
		switch f.Type {
		case MsgBeat:
			s.mu.Lock()
			if s.workers[r].gen == gen {
				s.workers[r].lastBeat = time.Now()
			}
			s.mu.Unlock()
		case MsgPeersOK:
			select {
			case s.peersOK <- ackMsg{rank: r, epoch: f.Xid}:
			default:
			}
		case MsgResult:
			// Decode where the frame lies, into the rank's own subdomain:
			// under s.mu, so the field is written only by the current
			// generation's reader and only for the request in flight.
			msg := resultMsg{rank: r, xid: f.Xid}
			s.mu.Lock()
			current := s.workers[r].gen == gen && f.Xid == s.curXid
			if current {
				msg.stats, msg.errstr, msg.err = decodeResult(f.Payload, s.subs[r].Dst())
			}
			s.mu.Unlock()
			if current {
				s.postResult(msg)
			}
		default:
		}
	}
}

// postResult hands a result to the apply loop. The channel is sized so
// this cannot block (see NewSession); if it ever would, the result is
// dropped out loud - counted, and the apply it answered times out and
// retries - rather than stall the reader that also carries the rank's
// heartbeats.
func (s *Session) postResult(msg resultMsg) {
	select {
	case s.results <- msg:
	default:
		s.met.resultsDropped.Add(1)
		s.opts.Scope.Instant("wire", "result-dropped", map[string]interface{}{"rank": msg.rank, "xid": msg.xid})
	}
}

// monitorBeats is the partition detector: a rank whose beats stop - hung,
// partitioned, or silently gone - is declared dead after HeartbeatMiss
// beat periods, bounding how long any failure can stall the session.
func (s *Session) monitorBeats() {
	window := s.timing.HeartbeatEvery * time.Duration(s.timing.HeartbeatMiss)
	tick := time.NewTicker(s.timing.HeartbeatEvery)
	defer tick.Stop()
	for range tick.C {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		type stale struct{ rank, gen int }
		var expired []stale
		for r, w := range s.workers {
			if w.alive && time.Since(w.lastBeat) > window {
				expired = append(expired, stale{rank: r, gen: w.gen})
			}
		}
		s.mu.Unlock()
		for _, e := range expired {
			s.declareDead(e.rank, e.gen, fmt.Errorf("wire: rank %d missed %d heartbeats", e.rank, s.timing.HeartbeatMiss))
		}
	}
}

// declareDead retires one worker generation: idempotent per generation,
// so the reader's EOF and the monitor's timeout can race harmlessly.
func (s *Session) declareDead(r, gen int, cause error) {
	s.mu.Lock()
	w := s.workers[r]
	if w.gen != gen || !w.alive {
		s.mu.Unlock()
		return
	}
	w.alive = false
	conn := w.conn
	closed := s.closed
	s.mu.Unlock()
	if conn != nil {
		closeQuiet(conn)
	}
	if closed {
		return
	}
	s.count("wire.rank_deaths", 1)
	s.count(obs.RankMetric("wire.deaths", r), 1)
	s.opts.Scope.Instant("wire", "rank-death", map[string]interface{}{"rank": r, "cause": cause.Error()})
	s.postDeath(deathNotice{rank: r, gen: gen})
}

// postDeath queues a death notice for whichever loop is waiting on one. A
// full queue loses nothing: the death is already recorded in the rank's
// state, which is what recovery reads.
func (s *Session) postDeath(d deathNotice) {
	select {
	case s.deadCh <- d:
	default:
	}
}

// stillDead reports whether a death notice is news: the generation it
// names is still the rank's current one, so the rank has not been
// reassigned since. Stale notices - deaths a recovery has already dealt
// with - are skipped by every loop that reads the queue.
func (s *Session) stillDead(d deathNotice) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers[d.rank].gen == d.gen
}

// deadRanks lists currently dead ranks.
func (s *Session) deadRanks() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for r, w := range s.workers {
		if !w.alive {
			out = append(out, r)
		}
	}
	return out
}

// stabilize drives the session back to a fully-alive, fully-peered
// state: respawn and restore every dead rank, bump the epoch, broadcast
// the peer table, and wait for every rank's acknowledgment. It also
// heals peer-link partitions with no dead rank at all - the epoch bump
// alone rewires every peer connection.
func (s *Session) stabilize() error {
	var lastErr error
	for attempt := 0; attempt <= maxApplyRetries; attempt++ {
		if err := s.stabilizeOnce(); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("wire: session failed to stabilize: %w", lastErr)
}

func (s *Session) stabilizeOnce() error {
	for _, r := range s.deadRanks() {
		if err := s.opts.Spawn(s.Addr()); err != nil {
			return fmt.Errorf("wire: respawning rank %d: %w", r, err)
		}
		if err := s.assignRank(r); err != nil {
			return err
		}
		s.count("wire.recoveries", 1)
		s.count(obs.RankMetric("wire.recoveries", r), 1)
	}

	epoch := s.epoch.Add(1)
	s.count("wire.reconnects", 1)
	table := make([]string, s.n)
	conns := make([]*Conn, s.n)
	s.mu.Lock()
	for r, w := range s.workers {
		table[r] = w.peerAddr
		conns[r] = w.conn
	}
	s.mu.Unlock()
	peers := &Frame{Type: MsgPeers, Rank: CoordRank, Xid: epoch, Payload: encodePeerTable(table)}
	for r, c := range conns {
		if c == nil {
			return fmt.Errorf("wire: rank %d has no connection", r)
		}
		if err := c.Send(peers, 0); err != nil {
			return fmt.Errorf("wire: broadcasting peers to rank %d: %w", r, err)
		}
	}

	acked := make([]bool, s.n)
	need := s.n
	deadline := time.NewTimer(s.timing.DialTimeout + s.timing.GhostTimeout)
	defer deadline.Stop()
	for need > 0 {
		select {
		case ack := <-s.peersOK:
			if ack.epoch != epoch || acked[ack.rank] {
				continue
			}
			acked[ack.rank] = true
			need--
		case d := <-s.deadCh:
			if s.stillDead(d) {
				return fmt.Errorf("wire: rank %d died during rewiring", d.rank)
			}
		case <-deadline.C:
			return fmt.Errorf("wire: epoch %d rewiring timed out with %d ranks unacked", epoch, need)
		}
	}
	return nil
}

// Apply implements solver.Linear. The fault-tolerance layer retries
// through failures; if the retry budget is exhausted the operator cannot
// make progress and the solve cannot continue meaningfully, so it
// panics rather than return silently wrong data.
func (s *Session) Apply(dst, src []complex128) { s.mustApply(dst, src, 0) }

// ApplyDagger implements solver.Linear via gamma_5 hermiticity; the
// workers apply both gamma_5 to their own subdomains.
func (s *Session) ApplyDagger(dst, src []complex128) { s.mustApply(dst, src, flagDagger) }

// ApplyNormal computes dst[k] = D^dag D src[k] in one round trip a
// system: each worker runs D, then gamma_5 D gamma_5 on its result, with a
// halo exchange before each stencil, and only the final field comes back.
// dst[k] is bit-for-bit what ApplyDagger(Apply(src[k])) produces. It is
// the session's solver.Normal, which CGNE takes for the normal operator,
// and it halves a CG iteration's scatters, gathers and coordinator-worker
// wake chains.
func (s *Session) ApplyNormal(dst, src [][]complex128) {
	for k := range src {
		s.mustApply(dst[k], src[k], flagNormal)
	}
}

func (s *Session) mustApply(dst, src []complex128, op byte) {
	if err := s.applyCtx(context.Background(), dst, src, op); err != nil {
		panic(fmt.Sprintf("wire: distributed apply failed beyond recovery: %v", err))
	}
}

// ApplyCtx computes dst = D src across the workers, recovering from rank
// deaths, partitions and link failures between attempts. It fails only
// when ctx is done or the retry budget is exhausted.
func (s *Session) ApplyCtx(ctx context.Context, dst, src []complex128) error {
	return s.applyCtx(ctx, dst, src, 0)
}

// applyCtx is ApplyCtx for any of the three operators; op is the
// request's operator flag (0, flagDagger or flagNormal).
func (s *Session) applyCtx(ctx context.Context, dst, src []complex128, op byte) error {
	if len(dst) != s.size || len(src) != s.size {
		panic("wire: Apply size mismatch")
	}
	var lastErr error
	for attempt := 0; attempt <= maxApplyRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			s.count("wire.retries", 1)
			// Give the heartbeat monitor one full window to convert a
			// partition or hang into a declared death before recovering.
			s.awaitDeaths(ctx)
		}
		if attempt > 0 || len(s.deadRanks()) > 0 {
			if err := s.stabilize(); err != nil {
				lastErr = err
				continue
			}
		}
		err := s.tryApply(ctx, dst, src, op)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
	}
	return fmt.Errorf("wire: apply failed after %d attempts: %w", maxApplyRetries+1, lastErr)
}

// awaitDeaths parks for up to one heartbeat window, returning early as
// soon as any rank is declared dead (or ctx is done).
func (s *Session) awaitDeaths(ctx context.Context) {
	if len(s.deadRanks()) > 0 {
		return
	}
	window := s.timing.HeartbeatEvery * time.Duration(s.timing.HeartbeatMiss+1)
	deadline := time.NewTimer(window)
	defer deadline.Stop()
	for {
		select {
		case d := <-s.deadCh:
			if s.stillDead(d) {
				// Only the wake-up was wanted: put the notice back, so
				// the queue still says what the state says. The rewiring
				// wait will find it stale once the rank is reassigned.
				s.postDeath(d)
				return
			}
		case <-deadline.C:
			return
		case <-ctx.Done():
			return
		}
	}
}

// tryApply runs one distributed application attempt under fresh transfer
// ids - one per stencil stage, so a normal apply takes two - and any
// failure leaves the workers idle (their ghost waits are bounded) while
// the caller decides whether to recover and retry. The steady state
// allocates nothing: fields are rendered from the subdomains into the
// connections' write buffers and decoded back by the ranks' readers.
func (s *Session) tryApply(ctx context.Context, dst, src []complex128, op byte) error {
	stages := uint64(1)
	if op == flagNormal {
		stages = 2
	}
	xid := s.xid + 1
	s.xid += stages
	if s.opts.Scope.Enabled() {
		span := s.opts.Scope.Begin("wire", "halo-apply", map[string]interface{}{
			"xid": xid, "ranks": s.n, "coarse": s.opts.Coarse, "staged": s.opts.Staged, "stages": stages})
		defer span.End()
	}

	flags := op
	if s.opts.Coarse {
		flags |= flagCoarse
	}
	if s.opts.Staged {
		flags |= flagStaged
	}
	t0 := time.Now()
	s.mu.Lock()
	s.curXid = xid
	for r, w := range s.workers {
		if !w.alive || w.conn == nil {
			s.mu.Unlock()
			return fmt.Errorf("wire: rank %d is dead", r)
		}
		s.conns[r] = w.conn
	}
	s.mu.Unlock()

	for r, sub := range s.subs {
		sub.ScatterFrom(src)
		buf := append(s.conns[r].begin(MsgApply, CoordRank, xid), flags)
		if err := s.conns[r].send(AppendComplex(buf, sub.Src()), 0); err != nil {
			return fmt.Errorf("wire: sending apply to rank %d: %w", r, err)
		}
	}
	t1 := time.Now()

	clear(s.got)
	need := s.n
	s.applyTimer.Reset(s.timing.ApplyTimeout)
	defer stopTimer(s.applyTimer)
	for need > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case d := <-s.deadCh:
			if s.stillDead(d) {
				return fmt.Errorf("wire: rank %d died mid-apply", d.rank)
			}
		case res := <-s.results:
			if res.xid != xid || s.got[res.rank] {
				continue // stale attempt or duplicate
			}
			if res.err != nil {
				return fmt.Errorf("wire: result from rank %d: %w", res.rank, res.err)
			}
			s.recordStats(res.rank, res.stats)
			if res.errstr != "" {
				return fmt.Errorf("wire: rank %d apply failed: %s", res.rank, res.errstr)
			}
			s.got[res.rank] = true
			need--
		case <-s.applyTimer.C:
			return fmt.Errorf("wire: apply %d timed out with %d ranks outstanding", xid, need)
		}
	}
	t2 := time.Now()
	for _, sub := range s.subs {
		sub.GatherTo(dst)
	}
	s.met.applies.Add(int64(stages))
	s.met.requests.Add(1)
	s.met.scatterSend.Add(int64(t1.Sub(t0)))
	s.met.resultWait.Add(int64(t2.Sub(t1)))
	s.met.gather.Add(int64(time.Since(t2)))
	return nil
}

// recordStats folds one worker's per-apply accounting into the registry.
func (s *Session) recordStats(rank int, st resultStats) {
	for _, c := range [...]haloCounters{s.met.total, s.met.rank[rank]} {
		c.frames.Add(st.HaloFrames)
		c.bytes.Add(st.HaloBytes)
		c.resends.Add(st.Resends)
		c.corrupts.Add(st.Corrupts)
	}
	s.met.decode.Add(int64(st.Times.Decode))
	s.met.packSend.Add(int64(st.Times.PackSend))
	s.met.interior.Add(int64(st.Times.Interior))
	s.met.ghostWait.Add(int64(st.Times.GhostWait))
	s.met.boundary.Add(int64(st.Times.Boundary))
	s.met.encodeResult.Add(int64(st.Times.Encode))
}

// ChaosCounts exposes the coordinator-side injected-fault tally (worker
// processes keep their own engines; their effects surface in the
// per-rank resend/corruption counters).
func (s *Session) ChaosCounts() fault.Counts { return s.chaos.Counts() }
