package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"femtoverse/internal/dirac"
	"femtoverse/internal/domain"
	"femtoverse/internal/fault"
	"femtoverse/internal/lattice"
)

// CoordRank is the rank id the coordinator signs its frames with.
const CoordRank = -1

// WorkerOptions configures one worker. Everything else - rank, chaos
// plan, timing, payload bound - arrives in the coordinator's welcome, so
// a worker process needs nothing on its command line but the
// coordinator's address.
type WorkerOptions struct {
	// DialTimeout bounds the initial coordinator dial (pre-welcome, so it
	// cannot come from the welcome). Zero means the Timing default.
	DialTimeout time.Duration
	// KillAtApply, when non-nil, is consulted as each stencil stage of an
	// apply request starts (a normal apply runs two, as xid and xid+1);
	// returning true makes the worker die abruptly - sockets torn down
	// mid-protocol, no result sent - exactly like a crashed process. The
	// rank-loss recovery tests drive this hook.
	KillAtApply func(rank int, xid uint64) bool
	// HangAtApply, when non-nil, is consulted the same way; returning
	// true freezes the worker - heartbeats included - for HangFor with
	// every socket left open. A crash announces itself with an EOF; a
	// hang announces nothing, so only the coordinator's heartbeat
	// timeout can detect it. The heartbeat tests drive this hook.
	HangAtApply func(rank int, xid uint64) bool
	// HangFor is how long a HangAtApply freeze lasts (default 2s).
	HangFor time.Duration
}

// errKilled is the worker's internal crash signal from KillAtApply.
var errKilled = errors.New("wire: worker killed by chaos hook")

// errHung is the worker's internal exit signal after a HangAtApply
// freeze elapses.
var errHung = errors.New("wire: worker hung by chaos hook")

// ghostSlot stages one incoming ghost face between the peer reader that
// decodes it off the wire and the apply loop that installs it in the
// subdomain. xid names the transfer whose face it holds while full.
type ghostSlot struct {
	buf  []complex128
	xid  uint64
	full bool
}

// peerKey addresses a peer connection: rewiring is per epoch, and a
// neighbor may establish the next epoch's connection before this worker
// has even seen the epoch's peer table.
type peerKey struct {
	rank  int
	epoch uint64
}

// Worker is one rank's process half: it owns a subdomain kernel
// (domain.Sub), serves apply requests from the coordinator, exchanges
// halo faces with peer workers over TCP, and heartbeats so the
// coordinator can tell a slow rank from a dead one.
type Worker struct {
	opts  WorkerOptions
	coord *Conn
	rank  int
	cfg   welcomeConfig
	chaos *Chaos
	sub   *domain.Sub
	epoch atomic.Uint64
	stats Stats

	peerLn net.Listener
	// ghostTimer bounds a ghost wait; owned by the apply loop.
	ghostTimer *time.Timer
	// ghostReady (capacity 1) wakes the apply loop after a peer reader has
	// staged a face; the loop re-reads the slots, so one token covers any
	// number of arrivals.
	ghostReady chan struct{}

	mu    sync.Mutex
	peers map[peerKey]*Conn
	// ghosts[xid&1][mu][dir] stages incoming faces. Every stencil stage
	// has its own xid and consecutive stages alternate parity, so a
	// neighbor running one stage ahead - the second stencil of a normal
	// apply, or simply the rank the coordinator reached first - fills the
	// other set instead of the faces this rank has yet to consume.
	ghosts    [2][lattice.NDim][2]ghostSlot
	curXid    uint64
	peerDown  chan struct{} // closed when a current-epoch peer conn dies
	downOnce  *sync.Once
	stopBeats chan struct{}
	// beatsOnce guards stopBeats against the hang hook and teardown
	// racing to close it.
	beatsOnce sync.Once
}

// Serve runs one worker against the coordinator at coordAddr until the
// coordinator goes away (clean shutdown: conn closed), the worker is
// killed by the chaos hook, or the protocol fails.
func Serve(coordAddr string, opts WorkerOptions) error {
	w := &Worker{
		opts:       opts,
		peers:      map[peerKey]*Conn{},
		ghostReady: make(chan struct{}, 1),
	}
	defer w.teardown()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("wire: worker peer listener: %w", err)
	}
	w.peerLn = ln

	if err := w.handshake(coordAddr); err != nil {
		return err
	}
	w.stopBeats = make(chan struct{})
	go w.heartbeat()
	go w.acceptPeers()

	return w.controlLoop()
}

// handshake dials the coordinator, announces the peer listener, and
// absorbs the welcome (rank + session config) and subdomain spec.
func (w *Worker) handshake(coordAddr string) error {
	t := Timing{DialTimeout: w.opts.DialTimeout}.WithDefaults()
	coord, err := dialConn(coordAddr, 0, 0, nil, t, helloMaxPayload, nil, &w.stats)
	if err != nil {
		return fmt.Errorf("wire: worker dial coordinator: %w", err)
	}
	w.coord = coord
	hello := &Frame{Type: MsgHello, Rank: -1, Payload: []byte(w.peerLn.Addr().String())}
	if err := coord.Send(hello, 0); err != nil {
		return fmt.Errorf("wire: worker hello: %w", err)
	}
	welcome, err := coord.Recv(0)
	if err != nil {
		return fmt.Errorf("wire: worker awaiting welcome: %w", err)
	}
	if welcome.Type != MsgWelcome {
		return fmt.Errorf("wire: worker expected welcome, got %v", welcome.Type)
	}
	cfg, err := decodeWelcome(welcome.Payload)
	if err != nil {
		return err
	}
	w.rank = welcome.Rank
	w.cfg = cfg
	w.epoch.Store(welcome.Xid)
	chaos, err := NewChaos(cfg.Plan)
	if err != nil {
		return err
	}
	w.chaos = chaos
	// From here on the control link runs the full fault-tolerance stack.
	coord.arm(fault.LinkKey(w.rank, CoordRank), fault.LinkKey(CoordRank, w.rank),
		chaos, cfg.Timing, cfg.MaxPayload, w.epoch.Load)

	sub, err := coord.Recv(0)
	if err != nil {
		return fmt.Errorf("wire: worker awaiting subdomain: %w", err)
	}
	if sub.Type != MsgSub {
		return fmt.Errorf("wire: worker expected subdomain, got %v", sub.Type)
	}
	spec, err := DecodeSpec(sub.Payload)
	if err != nil {
		return err
	}
	if w.sub, err = domain.NewSub(spec); err != nil {
		return err
	}
	// Size the ghost staging once: the plan names every partitioned
	// (mu, dir) face, and each has a ghost slot per parity.
	for _, p := range w.sub.HaloPeers() {
		for _, f := range p.Faces {
			for parity := range w.ghosts {
				w.ghosts[parity][f[0]][f[1]].buf = make([]complex128, w.sub.FaceLen(f[0]))
			}
		}
	}
	w.ghostTimer = time.NewTimer(time.Hour)
	w.ghostTimer.Stop()
	return nil
}

// helloMaxPayload bounds pre-welcome frames: addresses and specs only.
const helloMaxPayload = 64 << 20

// teardown releases every resource the worker holds.
func (w *Worker) teardown() {
	w.stopHeartbeat()
	if w.peerLn != nil {
		closeQuiet(w.peerLn)
	}
	if w.coord != nil {
		closeQuiet(w.coord)
	}
	w.mu.Lock()
	for _, pc := range w.peers {
		closeQuiet(pc)
	}
	w.peers = map[peerKey]*Conn{}
	w.mu.Unlock()
}

// closeQuiet releases a connection or listener being abandoned; the
// teardown error carries nothing the caller can act on.
func closeQuiet(c io.Closer) {
	if err := c.Close(); err != nil {
		return
	}
}

// stopHeartbeat silences the beat goroutine, exactly once, whether the
// hang hook or the final teardown asks first.
func (w *Worker) stopHeartbeat() {
	if w.stopBeats == nil {
		return
	}
	w.beatsOnce.Do(func() { close(w.stopBeats) })
}

// heartbeat emits MsgBeat every HeartbeatEvery until stopped. A beat
// that fails to send is dropped - if the control link is truly gone the
// control loop exits and takes the worker down.
func (w *Worker) heartbeat() {
	tick := time.NewTicker(w.cfg.Timing.HeartbeatEvery)
	defer tick.Stop()
	var n uint64
	for {
		select {
		case <-w.stopBeats:
			return
		case <-tick.C:
			n++
			f := &Frame{Type: MsgBeat, Rank: w.rank, Xid: n}
			if err := w.coord.Send(f, 0); err != nil {
				continue
			}
		}
	}
}

// acceptPeers registers inbound peer connections. The first frame on a
// peer connection is MsgPeerHello carrying the dialer's rank and epoch;
// everything after is halo traffic handled by servePeer.
func (w *Worker) acceptPeers() {
	for {
		nc, err := w.peerLn.Accept()
		if err != nil {
			return
		}
		go func(nc net.Conn) {
			pc := newConn(nc, 0, 0, nil, w.cfg.Timing, w.cfg.MaxPayload, w.epoch.Load, &w.stats)
			hello, err := pc.Recv(0)
			if err != nil || hello.Type != MsgPeerHello {
				closeQuiet(pc)
				return
			}
			pc.arm(fault.LinkKey(w.rank, hello.Rank), peerPartitionKey(w.rank, hello.Rank),
				w.chaos, w.cfg.Timing, w.cfg.MaxPayload, w.epoch.Load)
			w.registerPeer(hello.Rank, hello.Xid, pc)
		}(nc)
	}
}

// peerPartitionKey canonicalizes a peer pair so a partition draw severs
// both directions of the link at once.
func peerPartitionKey(a, b int) int {
	if a > b {
		a, b = b, a
	}
	return fault.LinkKey(a, b)
}

// registerPeer files a peer connection under its (rank, epoch) and
// starts its halo reader. A duplicate registration keeps the first
// connection and drops the newcomer.
func (w *Worker) registerPeer(rank int, epoch uint64, pc *Conn) {
	k := peerKey{rank: rank, epoch: epoch}
	w.mu.Lock()
	if _, dup := w.peers[k]; dup {
		w.mu.Unlock()
		closeQuiet(pc)
		return
	}
	w.peers[k] = pc
	down, once := w.peerDown, w.downOnce
	w.mu.Unlock()
	go w.servePeer(pc, epoch, down, once)
}

// servePeer drains one peer connection, delivering halo sections to the
// mailbox. A read error on a current-epoch connection broadcasts
// peer-down so in-flight ghost waits abort immediately instead of
// riding out the full ghost timeout.
func (w *Worker) servePeer(pc *Conn, epoch uint64, down chan struct{}, once *sync.Once) {
	for {
		f, err := pc.Recv(peerIdleTimeout)
		if err != nil {
			if isTimeout(err) {
				continue
			}
			if epoch == w.epoch.Load() && down != nil && once != nil {
				once.Do(func() { close(down) })
			}
			return
		}
		if f.Type != MsgHalo {
			continue
		}
		if err := w.deliverHalo(f); err != nil {
			continue
		}
	}
}

// peerIdleTimeout is the read deadline on idle peer connections; a
// timeout just re-arms the read, it is not a failure.
const peerIdleTimeout = time.Hour

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// deliverHalo decodes a halo frame's faces off the peer connection's read
// buffer straight into the ghost staging. The sender packs its face for
// (mu, senderDir); on this side it fills the opposite ghost slot, exactly
// the in-process channel wiring.
func (w *Worker) deliverHalo(f Frame) error {
	w.mu.Lock()
	err := decodeHaloSections(f.Payload, func(mu, dir, count int) []complex128 {
		return w.stageLocked(f.Xid, mu, 1-dir)
	})
	w.mu.Unlock()
	select {
	case w.ghostReady <- struct{}{}:
	default:
	}
	return err
}

// stageLocked claims the staging buffer for one arriving ghost face, or
// returns nil to drop it. Faces for transfers already superseded are
// dropped; faces for future transfers are staged (a neighbor that got its
// apply first legitimately sends ahead), displacing only an older face no
// one consumed - whose transfer the coordinator has by then abandoned.
// Callers hold w.mu.
func (w *Worker) stageLocked(xid uint64, mu, dir int) []complex128 {
	if xid < w.curXid || mu >= lattice.NDim || dir < 0 || dir > 1 {
		return nil
	}
	slot := &w.ghosts[xid&1][mu][dir]
	if slot.buf == nil || slot.full && slot.xid >= xid {
		return nil
	}
	slot.xid, slot.full = xid, true
	return slot.buf
}

// beginXid advances the current transfer id and empties the staged faces
// of superseded transfers, so ghosts from an abandoned apply attempt can
// never satisfy a later one.
func (w *Worker) beginXid(xid uint64) {
	w.mu.Lock()
	w.curXid = xid
	for parity := range w.ghosts {
		for mu := range w.ghosts[parity] {
			for dir := range w.ghosts[parity][mu] {
				if slot := &w.ghosts[parity][mu][dir]; slot.xid < xid {
					slot.full = false
				}
			}
		}
	}
	w.mu.Unlock()
}

// controlLoop serves the coordinator until the link dies.
func (w *Worker) controlLoop() error {
	for {
		f, err := w.coord.Recv(peerIdleTimeout)
		if err != nil {
			if isTimeout(err) {
				continue
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) {
				// Coordinator done with us (a close with frames still
				// buffered surfaces as a reset): clean exit.
				return nil
			}
			return fmt.Errorf("wire: worker %d control link: %w", w.rank, err)
		}
		switch f.Type {
		case MsgPeers:
			if err := w.rewire(f); err != nil {
				// Incomplete rewiring: withhold the ack. The coordinator's
				// recovery loop times out and retries with a fresh epoch.
				continue
			}
			ok := &Frame{Type: MsgPeersOK, Rank: w.rank, Xid: f.Xid}
			if err := w.coord.Send(ok, 0); err != nil {
				continue
			}
		case MsgApply:
			if err := w.serveApply(f); err != nil {
				return err
			}
		default:
			// Unexpected frame on the control link: ignore; the protocol
			// is request-driven and the coordinator retries.
		}
	}
}

// hang freezes the worker with every socket open: beats stop, the apply
// goes unanswered, nothing closes - the shape of a wedged process, which
// only a heartbeat monitor can tell apart from a merely slow one. After
// HangFor the worker exits and teardown releases the sockets.
func (w *Worker) hang() error {
	w.stopHeartbeat()
	d := w.opts.HangFor
	if d <= 0 {
		d = 2 * time.Second
	}
	time.Sleep(d)
	return errHung
}

// rewire installs the epoch's peer table: dial every needed neighbor we
// outrank-dial (lower rank dials, so each unordered pair gets exactly
// one connection), wait for the rest to dial us, and retire previous
// epochs' connections.
func (w *Worker) rewire(f Frame) error {
	epoch := f.Xid
	table, err := decodePeerTable(f.Payload)
	if err != nil {
		return err
	}

	// New epoch: fresh peer-down broadcast, retire stale conns.
	down := make(chan struct{})
	once := &sync.Once{}
	w.mu.Lock()
	w.peerDown, w.downOnce = down, once
	w.epoch.Store(epoch)
	for k, pc := range w.peers {
		if k.epoch < epoch {
			closeQuiet(pc)
			delete(w.peers, k)
		}
	}
	w.mu.Unlock()

	needed := w.neededPeers()
	for _, p := range needed {
		if w.rank > p {
			continue // the lower rank dials
		}
		if w.hasPeer(p, epoch) {
			continue
		}
		addr, ok := table[p]
		if !ok {
			return fmt.Errorf("wire: worker %d: epoch %d peer table missing rank %d", w.rank, epoch, p)
		}
		pc, err := dialConn(addr, fault.LinkKey(w.rank, p), peerPartitionKey(w.rank, p),
			w.chaos, w.cfg.Timing, w.cfg.MaxPayload, w.epoch.Load, &w.stats)
		if err != nil {
			return fmt.Errorf("wire: worker %d dial peer %d: %w", w.rank, p, err)
		}
		hello := &Frame{Type: MsgPeerHello, Rank: w.rank, Xid: epoch}
		if err := pc.Send(hello, 0); err != nil {
			closeQuiet(pc)
			return err
		}
		w.registerPeer(p, epoch, pc)
	}

	// Await the inbound dials.
	deadline := time.Now().Add(w.cfg.Timing.DialTimeout)
	for {
		missing := 0
		for _, p := range needed {
			if !w.hasPeer(p, epoch) {
				missing++
			}
		}
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wire: worker %d: epoch %d still missing %d peer connections", w.rank, epoch, missing)
		}
		time.Sleep(time.Millisecond)
	}
}

// hasPeer reports whether the (rank, epoch) connection is registered.
func (w *Worker) hasPeer(rank int, epoch uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.peers[peerKey{rank: rank, epoch: epoch}]
	return ok
}

// peerFor returns the current-epoch connection to rank, if any.
func (w *Worker) peerFor(rank int) (*Conn, chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peers[peerKey{rank: rank, epoch: w.epoch.Load()}], w.peerDown
}

// neededPeers lists the distinct neighbor ranks across partitioned
// dimensions, in (mu, dir) first-seen order.
func (w *Worker) neededPeers() []int {
	plan := w.sub.HaloPeers()
	out := make([]int, 0, len(plan))
	for _, p := range plan {
		out = append(out, p.Rank)
	}
	return out
}

// serveApply runs one apply request - one or two stencil stages, each the
// four-step halo pipeline under its own transfer id - and reports the
// result (or the failure) back to the coordinator, rendered from the
// subdomain's result field straight into the control link's write buffer.
func (w *Worker) serveApply(f Frame) error {
	resendBase, corruptBase := w.stats.Resends.Load(), w.stats.Corrupts.Load()
	var st resultStats
	applyErr := w.applyOnce(f, &st)
	if errors.Is(applyErr, errKilled) || errors.Is(applyErr, errHung) {
		return applyErr
	}
	st.Resends = w.stats.Resends.Load() - resendBase
	st.Corrupts = w.stats.Corrupts.Load() - corruptBase

	buf := appendResultHeader(w.coord.begin(MsgResult, w.rank, f.Xid), applyErr != nil, st)
	if applyErr != nil {
		buf = append(buf, applyErr.Error()...)
	} else {
		t0 := time.Now()
		dst := w.sub.Dst()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dst)))
		buf = AppendComplex(buf, dst)
		binary.LittleEndian.PutUint64(buf[headerLen+resultEncodeOff:], uint64(time.Since(t0)))
	}
	return w.coord.send(buf, 0)
}

// Flag bits in the apply payload's first byte: the halo plan, and which
// operator the request wants. The gamma_5 flips of the adjoint run here,
// on the rank that holds the field - a sign flip is exact, so where it
// happens cannot change a bit of the result.
const (
	flagCoarse = 1 << 0
	flagStaged = 1 << 1
	// flagDagger asks for gamma_5 D gamma_5 instead of D.
	flagDagger = 1 << 2
	// flagNormal asks for D^dag D = gamma_5 D gamma_5 D: two stencil
	// stages, under transfer ids xid and xid+1, the intermediate never
	// leaving the rank.
	flagNormal = 1 << 3
)

// applyOnce executes one apply request against the current epoch's peers.
// f's payload lives in the control link's read buffer; it is decoded into
// the subdomain's source field before anything else reads that link.
func (w *Worker) applyOnce(f Frame, st *resultStats) error {
	if len(f.Payload) < 1 {
		return fmt.Errorf("wire: worker %d: empty apply payload", w.rank)
	}
	flags := f.Payload[0]
	t0 := time.Now()
	src := w.sub.Src()
	if _, err := DecodeComplex(src, f.Payload[1:]); err != nil {
		return err
	}
	if flags&flagDagger != 0 {
		dirac.Gamma5(src, src)
	}
	st.Times.Decode = time.Since(t0)

	if err := w.stencilStage(f.Xid, flags, st); err != nil {
		return err
	}
	if flags&flagNormal != 0 {
		dirac.Gamma5(src, w.sub.Dst())
		if err := w.stencilStage(f.Xid+1, flags, st); err != nil {
			return err
		}
	}
	if flags&(flagDagger|flagNormal) != 0 {
		dirac.Gamma5(w.sub.Dst(), w.sub.Dst())
	}
	return nil
}

// stencilStage runs the four-step halo pipeline once, as transfer xid,
// adding its step times to st. The chaos hooks fire here, so a normal
// apply can be killed between its two stencils.
func (w *Worker) stencilStage(xid uint64, flags byte, st *resultStats) error {
	if w.opts.KillAtApply != nil && w.opts.KillAtApply(w.rank, xid) {
		return errKilled
	}
	if w.opts.HangAtApply != nil && w.opts.HangAtApply(w.rank, xid) {
		return w.hang()
	}
	w.beginXid(xid)
	coarse := flags&flagCoarse != 0
	t0 := time.Now()
	if flags&flagStaged != 0 {
		// Staged: fill the interior first, then push halos - the policy
		// that trades overlap for fewer in-flight messages.
		w.sub.StencilInterior()
		t1 := time.Now()
		if err := w.sendHalos(xid, coarse, st); err != nil {
			return err
		}
		st.Times.Interior += t1.Sub(t0)
		st.Times.PackSend += time.Since(t1)
	} else {
		// Eager: halos leave before any arithmetic so the interior
		// overlaps the exchange.
		if err := w.sendHalos(xid, coarse, st); err != nil {
			return err
		}
		t1 := time.Now()
		w.sub.StencilInterior()
		st.Times.PackSend += t1.Sub(t0)
		st.Times.Interior += time.Since(t1)
	}
	t2 := time.Now()
	if err := w.recvGhosts(xid); err != nil {
		return err
	}
	t3 := time.Now()
	w.sub.StencilBoundary()
	st.Times.GhostWait += t3.Sub(t2)
	st.Times.Boundary += time.Since(t3)
	return nil
}

// sendHalos packs and ships every boundary face for transfer xid, in the
// subdomain's halo plan order. Fine granularity sends one frame per
// (mu, dir) face; coarse batches all faces bound for the same neighbor
// into one frame.
func (w *Worker) sendHalos(xid uint64, coarse bool, st *resultStats) error {
	sel := 0
	for _, p := range w.sub.HaloPeers() {
		pc, _ := w.peerFor(p.Rank)
		if pc == nil {
			return fmt.Errorf("wire: worker %d: no connection to peer %d", w.rank, p.Rank)
		}
		if coarse {
			if err := w.sendHaloFrame(pc, xid, sel, p.Faces, st); err != nil {
				return err
			}
			sel++
			continue
		}
		for i := range p.Faces {
			if err := w.sendHaloFrame(pc, xid, sel, p.Faces[i:i+1], st); err != nil {
				return err
			}
			sel++
		}
	}
	return nil
}

// sendHaloFrame packs faces from the source field straight into one
// MsgHalo frame in the peer connection's write buffer and transmits it,
// tallying the halo frame/byte counters the result reports.
func (w *Worker) sendHaloFrame(pc *Conn, xid uint64, sel int, faces [][2]int, st *resultStats) error {
	src := w.sub.Src()
	buf := pc.begin(MsgHalo, w.rank, xid)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(faces)))
	for _, face := range faces {
		mu, dir := face[0], face[1]
		buf = appendSectionHeader(buf, mu, dir, w.sub.FaceLen(mu))
		for _, s := range w.sub.Face(mu, dir) {
			buf = AppendComplex(buf, src[s*spinorComplexLen:(s+1)*spinorComplexLen])
		}
	}
	st.HaloFrames++
	st.HaloBytes += int64(len(buf) + trailerLen)
	return pc.send(buf, sel)
}

// recvGhosts waits for every expected ghost face of transfer xid and
// installs each in the subdomain, bounded by the ghost timeout and
// aborted early if a peer connection dies. A missing ghost is a detected
// fault the coordinator turns into recovery, never an indefinite stall.
func (w *Worker) recvGhosts(xid uint64) error {
	w.ghostTimer.Reset(w.cfg.Timing.GhostTimeout)
	defer stopTimer(w.ghostTimer)
	var have [lattice.NDim][2]bool
	for {
		missMu, missDir := -1, 0
		w.mu.Lock()
		for mu := range w.ghosts[xid&1] {
			for dir := range w.ghosts[xid&1][mu] {
				slot := &w.ghosts[xid&1][mu][dir]
				if slot.buf == nil || have[mu][dir] {
					continue
				}
				if slot.full && slot.xid == xid {
					w.sub.SetGhost(mu, dir, slot.buf)
					slot.full, have[mu][dir] = false, true
				} else if missMu < 0 {
					missMu, missDir = mu, dir
				}
			}
		}
		down := w.peerDown
		w.mu.Unlock()
		if missMu < 0 {
			return nil
		}
		select {
		case <-w.ghostReady:
		case <-down:
			return fmt.Errorf("wire: worker %d: peer connection lost waiting for ghost (mu=%d dir=%d xid=%d)", w.rank, missMu, missDir, xid)
		case <-w.ghostTimer.C:
			return fmt.Errorf("wire: worker %d: ghost (mu=%d dir=%d xid=%d) not received within %v", w.rank, missMu, missDir, xid, w.cfg.Timing.GhostTimeout)
		}
	}
}
