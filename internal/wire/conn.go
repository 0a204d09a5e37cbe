package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"femtoverse/internal/fault"
	jobrt "femtoverse/internal/runtime"
)

// Timing bundles the session's deadline/backoff knobs. The zero value is
// replaced by defaults suited to localhost transport.
type Timing struct {
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// IOTimeout bounds every single socket read/write.
	IOTimeout time.Duration
	// ApplyTimeout bounds one whole distributed application attempt.
	ApplyTimeout time.Duration
	// GhostTimeout bounds one halo-face wait on a worker.
	GhostTimeout time.Duration
	// HeartbeatEvery is the worker beat period; HeartbeatMiss beats
	// without news and the coordinator declares the rank dead.
	HeartbeatEvery time.Duration
	HeartbeatMiss  int
	// RetryBase/RetryMax shape the capped jittered retransmit and
	// reconnect backoff (internal/runtime.BackoffDelay).
	RetryBase time.Duration
	RetryMax  time.Duration
	// MaxSendAttempts caps chaos-driven retransmissions of one frame.
	MaxSendAttempts int
	// MaxDelay caps an injected NetDelay stall.
	MaxDelay time.Duration
}

// WithDefaults fills unset fields.
func (t Timing) WithDefaults() Timing {
	if t.DialTimeout <= 0 {
		t.DialTimeout = 2 * time.Second
	}
	if t.IOTimeout <= 0 {
		t.IOTimeout = 5 * time.Second
	}
	if t.ApplyTimeout <= 0 {
		t.ApplyTimeout = 10 * time.Second
	}
	if t.GhostTimeout <= 0 {
		t.GhostTimeout = 2 * time.Second
	}
	if t.HeartbeatEvery <= 0 {
		t.HeartbeatEvery = 50 * time.Millisecond
	}
	if t.HeartbeatMiss <= 0 {
		t.HeartbeatMiss = 6
	}
	if t.RetryBase <= 0 {
		t.RetryBase = time.Millisecond
	}
	if t.RetryMax <= 0 {
		t.RetryMax = 50 * time.Millisecond
	}
	if t.MaxSendAttempts <= 0 {
		t.MaxSendAttempts = 10
	}
	if t.MaxDelay <= 0 {
		t.MaxDelay = 10 * time.Millisecond
	}
	return t
}

// ErrLinkFailed marks a connection the fault-tolerance layer has given up
// on: the retransmit or reconnect budget is exhausted, or the far end is
// gone. The caller escalates to rank recovery.
var ErrLinkFailed = errors.New("wire: link failed")

// Stats tallies the fault-tolerance work a connection performed; the
// worker reports the deltas back to the coordinator in every result so
// per-rank retry/resend/corruption metrics surface in one registry.
type Stats struct {
	Resends  atomic.Int64 // faulted transmission attempts that were retried
	Corrupts atomic.Int64 // damaged frames detected and discarded on receive
}

// Conn is a framed connection: deadline-bounded socket ops, sender-side
// chaos injection with deterministic retransmit backoff, and write
// serialization via a capacity-1 semaphore (several goroutines - the
// heartbeat, the apply responder - share the worker's control
// connection; a semaphore rather than a mutex because the critical
// section sleeps through injected delays and backoff, and parking while
// holding a sync.Mutex is against the lockhold contract).
//
// Each direction owns one reusable buffer. A sender renders its frame
// straight into the write buffer (begin, append the payload, send) and the
// frame leaves in one write; the read side is a FrameReader, so a received
// Payload aliases the read buffer and is valid only until the next Recv.
// One goroutine at a time may Recv.
type Conn struct {
	c        net.Conn
	link     int // directed chaos link key (fault.LinkKey)
	plink    int // canonical (order-independent) key: partitions sever both ways
	chaos    *Chaos
	timing   Timing
	writeSem chan struct{}
	wbuf     []byte // the frame being sent; owned by the writeSem holder
	rd       FrameReader
	epoch    func() uint64 // current epoch for partition draws
	stats    *Stats
}

// poisonReads makes every new connection scribble over a received frame
// as soon as its consumer asks for the next one. Tests set it to prove no
// payload outlives its validity; nothing else writes it (atomic because
// workers of an earlier test may still be winding down when one does).
var poisonReads atomic.Bool

// newConn wraps an established socket.
func newConn(c net.Conn, link, plink int, chaos *Chaos, timing Timing, maxPayload int, epoch func() uint64, stats *Stats) *Conn {
	if epoch == nil {
		epoch = func() uint64 { return 0 }
	}
	if stats == nil {
		stats = &Stats{}
	}
	return &Conn{
		c: c, link: link, plink: plink, chaos: chaos, timing: timing,
		writeSem: make(chan struct{}, 1), epoch: epoch, stats: stats,
		rd: FrameReader{r: c, maxPayload: maxPayload, poison: poisonReads.Load()},
	}
}

// arm re-parameterizes the connection once the handshake has revealed the
// session's rank, chaos plan and timing (the hello/welcome exchange runs
// chaos-free under default deadlines: ranks are unassigned, so there is
// no identity to key draws by). Only legal before concurrent use starts.
func (fc *Conn) arm(link, plink int, chaos *Chaos, timing Timing, maxPayload int, epoch func() uint64) {
	fc.link, fc.plink, fc.chaos, fc.timing, fc.rd.maxPayload = link, plink, chaos, timing, maxPayload
	if epoch != nil {
		fc.epoch = epoch
	}
}

// dialConn establishes a framed connection with deadline.
func dialConn(addr string, link, plink int, chaos *Chaos, timing Timing, maxPayload int, epoch func() uint64, stats *Stats) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timing.DialTimeout)
	if err != nil {
		return nil, err
	}
	return newConn(nc, link, plink, chaos, timing, maxPayload, epoch, stats), nil
}

// Close tears the socket down.
func (fc *Conn) Close() error { return fc.c.Close() }

// Send transmits one frame whose payload is already rendered (the small
// control frames). sel disambiguates frames sharing a (type, xid) - the
// halo section index - so every transmission draws from its own identity
// key.
func (fc *Conn) Send(f *Frame, sel int) error {
	return fc.send(append(fc.begin(f.Type, f.Rank, f.Xid), f.Payload...), sel)
}

// begin takes the connection's write side and opens a frame in its write
// buffer. The caller appends the payload to the returned slice - straight
// from the field, face or stats it describes - and must hand it to send,
// which releases the write side.
func (fc *Conn) begin(t MsgType, rank int, xid uint64) []byte {
	fc.writeSem <- struct{}{}
	return BeginFrame(fc.wbuf[:0], t, rank, xid)
}

// send seals the frame begin opened and transmits it. Chaos faults drawn
// for the transmission are simulated sender-side: a dropped or corrupted
// attempt is followed by a capped-jittered backoff and a retransmission
// drawing a fresh variate, so the frame eventually lands unless the
// attempt cap trips (ErrLinkFailed) or the link is partitioned for the
// epoch (silently swallowed - only the heartbeat monitor can see through
// a partition).
func (fc *Conn) send(buf []byte, sel int) error {
	defer func() { <-fc.writeSem }()
	fc.wbuf = FinishFrame(buf)
	data := fc.wbuf
	if fc.chaos.LinkDown(fc.plink, fc.epoch()) {
		// Partitioned: the bytes vanish. Reporting success is the point -
		// a real partition gives the sender no signal either.
		return nil
	}
	typ, xid := MsgType(data[4]), binary.LittleEndian.Uint64(data[9:])
	paylen := len(data) - FrameOverhead
	for attempt := 1; ; attempt++ {
		if attempt > fc.timing.MaxSendAttempts {
			return fmt.Errorf("%w: %d transmissions of %v frame all faulted", ErrLinkFailed, fc.timing.MaxSendAttempts, typ)
		}
		key := fault.MsgKey(xid, int(typ), sel, attempt)
		k := fc.chaos.Draw(fc.link, key)
		switch k {
		case fault.NetDrop:
			// Lost on the wire: back off, retransmit.
			fc.stats.Resends.Add(1)
			time.Sleep(jobrt.BackoffDelay(fc.timing.RetryBase, fc.timing.RetryMax,
				fc.chaos.Plan().Seed, int64(fc.link), attempt))
			continue
		case fault.NetCorrupt:
			// Damage a payload byte (or the checksum when there is no
			// payload) and deliver: the receiver's CRC must catch it and
			// discard the frame. Then back off and retransmit clean.
			idx := len(data) - 1
			if paylen > 0 {
				idx = headerLen + int(fault.Uniform(fc.chaos.Plan().Seed^corruptSalt, int64(fc.link), int64(xid))*float64(paylen))
			}
			data[idx] ^= 0xa5
			err := fc.writeAll(data)
			data[idx] ^= 0xa5
			if err != nil {
				return err
			}
			fc.stats.Resends.Add(1)
			time.Sleep(jobrt.BackoffDelay(fc.timing.RetryBase, fc.timing.RetryMax,
				fc.chaos.Plan().Seed, int64(fc.link), attempt))
			continue
		case fault.NetDelay:
			time.Sleep(fc.chaos.DelayFor(fc.link, key, fc.timing.MaxDelay))
		}
		return fc.writeAll(data)
	}
}

const corruptSalt = 0x636f7272 // "corr"

// stopTimer leaves a reused timer stopped with its channel empty, ready
// for the next Reset, whether or not it fired.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// writeAll writes data under the per-op deadline.
func (fc *Conn) writeAll(data []byte) error {
	if err := fc.c.SetWriteDeadline(time.Now().Add(fc.timing.IOTimeout)); err != nil {
		return err
	}
	_, err := fc.c.Write(data)
	return err
}

// Recv reads the next intact frame, discarding checksum-damaged frames
// (payload corruption preserves framing; the retransmission follows).
// The frame's Payload aliases the connection's read buffer: it is valid
// until the next Recv and no longer. timeout bounds the whole call; zero
// means the per-op IOTimeout. Discarded frames are tallied in the
// connection Stats.
func (fc *Conn) Recv(timeout time.Duration) (Frame, error) {
	if timeout <= 0 {
		timeout = fc.timing.IOTimeout
	}
	if err := fc.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return Frame{}, err
	}
	for {
		f, err := fc.rd.Next()
		if errors.Is(err, ErrCorrupt) {
			// Detected damage: drop the frame, keep the stream. Injected
			// corruption touches only payload/CRC bytes, so framing
			// survives; organic header damage surfaces as ErrCorrupt too
			// and the caller's read loop escalates when the stream
			// desynchronizes (the next magic check fails).
			fc.stats.Corrupts.Add(1)
			continue
		}
		return f, err
	}
}
