package tcpnet

import (
	"bufio"
	"errors"
	"net"

	"repro/internal/dsys"
	"repro/internal/wire"
)

// registerInbound tracks an accepted connection so Crash/Stop can close it;
// reports false (and closes the conn) when its listener's process is gone.
func (t *Transport) registerInbound(conn net.Conn, owner dsys.ProcessID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped.Load() || t.crashed[owner-1].Load() {
		conn.Close()
		return false
	}
	t.inbound[conn] = owner
	return true
}

func (t *Transport) unregisterInbound(conn net.Conn) {
	t.mu.Lock()
	delete(t.inbound, conn)
	t.mu.Unlock()
}

// acceptLoop receives connections addressed to process id and decodes
// frames into the cluster.
func (t *Transport) acceptLoop(id dsys.ProcessID, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (crash or stop)
		}
		if !t.registerInbound(conn, id) {
			continue
		}
		t.wg.Add(1)
		go t.readLoop(id, conn)
	}
}

// readLoop decodes frames off one accepted connection into the cluster. A
// frame from an out-of-range sender, or addressed to some other process than
// this listener's, is dropped and traced; a stream whose framing goes bad is
// dropped whole (resynchronization is impossible once a length prefix is
// suspect); only connection teardown ends the loop silently.
func (t *Transport) readLoop(id dsys.ProcessID, conn net.Conn) {
	defer t.wg.Done()
	defer t.unregisterInbound(conn)
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 32<<10)
	var buf []byte
	var ar msgArena
	for {
		f, b, err := wire.ReadFrame(br, buf)
		buf = b
		if err != nil {
			if errors.Is(err, wire.ErrMalformed) {
				t.onLink("tcp.badframe", f.From, id)
			}
			return
		}
		if f.From < 1 || int(f.From) > t.cfg.N || f.To != id {
			t.onLink("tcp.badframe", f.From, id)
			continue
		}
		t.inject(ar.new(dsys.Message{From: f.From, To: f.To, Kind: f.Kind, Payload: f.Payload}))
	}
}

// msgArena chunk-allocates the dsys.Messages a read loop delivers: one heap
// allocation per arenaChunk messages instead of one per message — the last
// per-message allocation on the receive path. Each read loop owns its arena
// (single goroutine, no locking). A chunk is garbage once all of its messages
// are; a long-retained message pins at most arenaChunk-1 siblings (~4KB),
// which is cheap against the allocator pressure of the n²-heartbeat path.
type msgArena struct {
	chunk []dsys.Message
}

const arenaChunk = 64

func (a *msgArena) new(msg dsys.Message) *dsys.Message {
	if len(a.chunk) == 0 {
		a.chunk = make([]dsys.Message, arenaChunk)
	}
	m := &a.chunk[0]
	a.chunk = a.chunk[1:]
	*m = msg
	return m
}
