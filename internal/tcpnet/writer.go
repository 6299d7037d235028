package tcpnet

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/dsys"
	"repro/internal/wire"
)

// peer returns (creating on first use) the outbound queue for destination
// to, or nil when the transport is stopped or either endpoint has crashed.
// The steady-state path is three atomic loads — the transport mutex is only
// taken to create a destination's queue the first time anyone sends to it.
func (t *Transport) peer(to, from dsys.ProcessID) *peer {
	if t.stopped.Load() || t.crashed[to-1].Load() || t.crashed[from-1].Load() {
		return nil
	}
	if pr := t.peerTab[to-1].Load(); pr != nil {
		return pr
	}
	return t.peerSlow(to)
}

// peerSlow creates the destination's queue under the transport lock,
// re-checking liveness so a racing Crash/Stop cannot resurrect a closed
// destination.
func (t *Transport) peerSlow(to dsys.ProcessID) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped.Load() || t.crashed[to-1].Load() {
		return nil
	}
	if pr := t.peerTab[to-1].Load(); pr != nil {
		return pr
	}
	pr := newPeer(t, to)
	t.peerTab[to-1].Store(pr)
	t.wg.Add(1)
	go pr.run()
	return pr
}

// outFrame is one queued outbound frame. retried marks that one delivery
// attempt already failed, bounding redelivery effort: a frame is retried at
// most once before it is dropped ("tcp.lost"), which keeps the link fair-lossy
// without letting a flapping connection wedge the writer forever.
type outFrame struct {
	f       wire.Frame
	retried bool
}

const (
	// batchLen bounds how many queued frames one writer wakeup drains and
	// flushes as a single buffered write.
	batchLen = 64
	// The reconnect backoff doubles from initialBackoff up to maxBackoff.
	initialBackoff = 5 * time.Millisecond
	maxBackoff     = 500 * time.Millisecond
)

// Pools shared by all peer writers: encode buffers (one live per connected
// writer) and the bufio.Writers wrapping outbound connections. Meshes come
// and go in tests and experiments; pooling keeps the per-connection setup
// allocation-free in steady state.
var (
	encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}
	bwPool     = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, 32<<10) }}
)

// peer owns the outbound path to one destination: a bounded FIFO queue and
// a writer goroutine that dials (and redials, with exponential backoff) the
// destination's listener and writes frames in batches. Protocol tasks only
// ever touch the queue, so TCP backpressure and dial latency never block a
// send.
type peer struct {
	t  *Transport
	to dsys.ProcessID

	mu       sync.Mutex
	cond     *sync.Cond
	q        []outFrame
	closed   bool
	conn     net.Conn // current live connection, nil while disconnected
	closedCh chan struct{}
}

func newPeer(t *Transport, to dsys.ProcessID) *peer {
	pr := &peer{t: t, to: to, closedCh: make(chan struct{})}
	pr.cond = sync.NewCond(&pr.mu)
	return pr
}

// enqueue appends a frame, dropping the oldest queued frame on overflow.
func (pr *peer) enqueue(of outFrame) {
	pr.mu.Lock()
	if pr.closed {
		pr.mu.Unlock()
		return
	}
	if len(pr.q) >= pr.t.cfg.QueueLen {
		old := pr.q[0]
		pr.q = pr.q[1:]
		pr.t.onLink("tcp.overflow", old.f.From, pr.to)
	}
	pr.q = append(pr.q, of)
	pr.cond.Signal()
	pr.mu.Unlock()
}

// awaitFrames blocks until at least one frame is queued, WITHOUT dequeuing
// anything — frames stay in the queue (where overflow accounting sees them)
// until the writer has a live connection to put them on.
func (pr *peer) awaitFrames() bool {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for len(pr.q) == 0 && !pr.closed {
		pr.cond.Wait()
	}
	return !pr.closed
}

// drain moves up to batchLen queued frames into dst (reused across
// calls), compacting the queue. Reports false when the peer closed.
func (pr *peer) drain(dst []outFrame) ([]outFrame, bool) {
	dst = dst[:0]
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.closed {
		return dst, false
	}
	n := min(len(pr.q), batchLen)
	dst = append(dst, pr.q[:n]...)
	rem := copy(pr.q, pr.q[n:])
	// Zero the vacated tail so shifted-out frames don't pin their payloads.
	for i := rem; i < len(pr.q); i++ {
		pr.q[i] = outFrame{}
	}
	pr.q = pr.q[:rem]
	return dst, true
}

// close shuts the peer down: the writer exits, queued frames are discarded,
// any live connection is closed.
func (pr *peer) close() {
	pr.mu.Lock()
	if pr.closed {
		pr.mu.Unlock()
		return
	}
	pr.closed = true
	conn := pr.conn
	pr.conn = nil
	pr.q = nil
	pr.cond.Broadcast()
	pr.mu.Unlock()
	close(pr.closedCh)
	if conn != nil {
		conn.Close()
	}
}

// resetConn forcibly closes the current connection (if any); the writer
// notices on its next write and redials.
func (pr *peer) resetConn() {
	pr.mu.Lock()
	conn := pr.conn
	pr.mu.Unlock()
	if conn != nil {
		pr.t.onLink("tcp.reset", dsys.None, pr.to)
		conn.Close()
	}
}

// swapConn publishes the writer's current connection (for resetConn /
// close) and returns it, unless the peer is already closed — then the
// connection is closed immediately and nil is returned.
func (pr *peer) swapConn(conn net.Conn) net.Conn {
	pr.mu.Lock()
	if pr.closed {
		pr.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
		return nil
	}
	pr.conn = conn
	pr.mu.Unlock()
	return conn
}

// peerWriter is the writer goroutine's connection state: the live conn plus
// the pooled buffered writer and batch encode buffer on top of it.
type peerWriter struct {
	pr     *peer
	conn   net.Conn
	bw     *bufio.Writer // pooled, wraps conn
	encBuf *[]byte       // pooled batch encode buffer
	ends   []int         // per-frame end offsets into encBuf
	rng    *rand.Rand    // ResetP rolls; nil when ResetP is 0
}

// run is the writer goroutine: await traffic, (re)connect, drain a batch,
// write it with one flush. Frames that survive a broken attempt stay in
// pending (ahead of newer queue traffic, preserving per-sender order).
func (pr *peer) run() {
	defer pr.t.wg.Done()
	w := peerWriter{pr: pr}
	if pr.t.cfg.ResetP > 0 {
		w.rng = rand.New(rand.NewSource(pr.t.cfg.Seed ^ int64(pr.to)))
	}
	w.encBuf = encBufPool.Get().(*[]byte)
	defer func() {
		w.teardown()
		encBufPool.Put(w.encBuf)
	}()
	backoff := initialBackoff
	var pending []outFrame
	for {
		if len(pending) == 0 {
			if !pr.awaitFrames() {
				return
			}
		}
		if w.conn == nil {
			if !w.connect(&backoff) {
				return // closed while reconnecting; pending frames lost
			}
		}
		if len(pending) == 0 {
			var ok bool
			pending, ok = pr.drain(pending)
			if !ok {
				return
			}
			if len(pending) == 0 {
				continue
			}
		}
		pending = w.writeBatch(pending)
	}
}

// connect dials the destination until it succeeds or the peer is closed,
// sleeping *backoff (doubled up to the cap) between failed attempts. On
// success the backoff resets, the connection is published, and the buffered
// writer is armed. Go dials TCP with TCP_NODELAY on, which is what a batched
// writer wants: every flush is already a coalesced segment.
func (w *peerWriter) connect(backoff *time.Duration) bool {
	pr, t := w.pr, w.pr.t
	for {
		select {
		case <-pr.closedCh:
			return false
		default:
		}
		conn, err := t.dial(t.Addr(pr.to), t.cfg.DialTimeout)
		if err == nil {
			if pr.swapConn(conn) == nil {
				return false
			}
			t.onLink("tcp.dial", dsys.None, pr.to)
			*backoff = initialBackoff
			w.conn = conn
			w.bw = bwPool.Get().(*bufio.Writer)
			w.bw.Reset(conn)
			return true
		}
		t.onLink("tcp.dialfail", dsys.None, pr.to)
		t := time.NewTimer(*backoff)
		select {
		case <-t.C:
		case <-pr.closedCh:
			t.Stop()
			return false
		}
		*backoff = min(*backoff*2, maxBackoff)
	}
}

// teardown closes and unpublishes the connection and returns the pooled
// writer state.
func (w *peerWriter) teardown() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
		w.pr.swapConn(nil)
	}
	if w.bw != nil {
		w.bw.Reset(io.Discard) // drop unflushed bytes before pooling
		bwPool.Put(w.bw)
		w.bw = nil
	}
}

// writeBatch attempts one delivery of batch and returns the frames still
// pending — empty on full success, the retry-once survivors after a break.
// It marshals every frame into the shared encode buffer, hands the spans to
// the buffered writer and flushes once:
//
//   - a frame wire cannot encode (unregistered payload type, body over
//     MaxFrameLen) never will, so it is dropped here with one
//     "tcp.unencodable" — the connection is untouched, marshalling is not a
//     link fault;
//   - a write or flush error is one "tcp.break" and a teardown; every frame
//     of the failed attempt is retried once, in order, ahead of new traffic
//     on the fresh connection, and a frame whose retry also breaks is
//     dropped with "tcp.lost". Frames after the error point were never
//     attempted and stay pristine (no retry consumed).
func (w *peerWriter) writeBatch(batch []outFrame) []outFrame {
	pr, t := w.pr, w.pr.t
	buf := (*w.encBuf)[:0]
	w.ends = w.ends[:0]

	// Marshal pass: frames become byte spans in buf, unencodable ones leave
	// the batch.
	n := 0
	for i := range batch {
		f := &batch[i].f
		out, err := wire.AppendFrame(buf, f)
		if err != nil {
			t.onLink("tcp.unencodable", f.From, pr.to)
			if t.cfg.Log != nil {
				fmt.Fprintf(t.cfg.Log, "tcpnet: %v->%v %q frame dropped: %v\n", f.From, pr.to, f.Kind, err)
			}
			continue
		}
		buf = out
		w.ends = append(w.ends, len(out))
		if n != i {
			batch[n] = batch[i]
		}
		n++
	}
	batch = batch[:n]
	*w.encBuf = buf
	if len(batch) == 0 {
		return batch
	}

	// Write pass: every span through the buffered writer, one flush.
	var werr error
	attempted := len(batch) // frames [0,attempted) are part of this attempt
	failFrom := batch[0].f.From
	start := 0
	for i, end := range w.ends {
		if _, werr = w.bw.Write(buf[start:end]); werr != nil {
			attempted = i + 1
			failFrom = batch[i].f.From
			break
		}
		t.wireFrames.Add(1)
		t.wireBytes.Add(int64(end - start))
		start = end
	}
	if werr == nil {
		werr = w.bw.Flush()
	}

	if werr == nil {
		// Delivered. Roll forced resets per flushed frame.
		if w.rng != nil {
			for i := range batch {
				if w.rng.Float64() < t.cfg.ResetP {
					t.onLink("tcp.reset", batch[i].f.From, pr.to)
					w.teardown()
					break
				}
			}
		}
		return batch[:0]
	}

	// The connection broke with the batch in flight.
	t.onLink("tcp.break", failFrom, pr.to)
	w.teardown()
	keep := batch[:0]
	for i := range batch {
		of := &batch[i]
		if i < attempted {
			if of.retried {
				t.onLink("tcp.lost", of.f.From, pr.to)
				continue
			}
			of.retried = true
		}
		keep = append(keep, *of)
	}
	return keep
}
