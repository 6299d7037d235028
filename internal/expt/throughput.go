package expt

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/dsys"
	"repro/internal/fd/heartbeat"
	"repro/internal/tcpnet"
	"repro/internal/trace"
	"repro/internal/wire"
)

// E15LiveThroughput is a supplementary engineering experiment on the real TCP
// transport: an all-pairs message flood over a localhost mesh at n up to 32,
// measuring sustained delivery throughput, bytes per frame on the wire, and
// heap allocations per message. At the largest n it also reruns the E13-style
// heartbeat-detector scenario: strong completeness and crash detection must
// hold on the same transport the flood measures.
//
// Cells run sequentially, not through the trial pool: allocs/msg comes from
// runtime.ReadMemStats deltas, which are process-global and would be polluted
// by a concurrent cell. Like E13/E14-live, the numbers are wall-clock and
// machine-dependent; the in-experiment assertions are therefore shape checks
// (frames drain, completeness holds) plus one exact one: the wire format is
// fully specified, so the bytes the writers put on the wire must equal the
// encoded size of the frames sent.
func E15LiveThroughput(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "Live TCP mesh throughput: binary wire codec + batched writes (supplementary; wall-clock)",
		Claim:   "engineering supplement to Section 4 live runs: the mesh sustains an all-pairs flood at the exact byte cost the wire format specifies, with detector correctness intact on the same transport",
		Columns: []string{"n", "msgs/s", "B/frame", "allocs/msg", "delivered", "completeness", "det p50", "det max"},
	}
	ns := []int{8, 16, 32}
	totalMsgs := 48000
	if quick {
		ns = []int{8, 16}
		totalMsgs = 12000
	}
	detN := ns[len(ns)-1] // detection scenario only at the largest n

	var err error
	for _, n := range ns {
		perPair := totalMsgs / (n * (n - 1))
		if perPair < 16 {
			perPair = 16
		}
		thr, terr := runThroughputCell(n, perPair)
		if terr != nil {
			return t, terr
		}
		comp, p50, max := "-", "-", "-"
		if n == detN {
			det, derr := runDetectionCell(n)
			if derr != nil {
				return t, derr
			}
			comp = mark(det.completeness.Holds)
			if det.detected > 0 {
				p50, max = msd(det.detP50), msd(det.detMax)
			}
			if err == nil {
				err = checkf(det.completeness.Holds, "E15",
					"n=%d: strong completeness violated on the TCP mesh", n)
			}
			if err == nil {
				err = checkf(det.detected > 0, "E15",
					"n=%d: no survivor ever detected the crash", n)
			}
		}
		t.AddRow(n,
			fmt.Sprintf("%.0f", thr.msgsPerSec),
			fmt.Sprintf("%.1f", float64(thr.wireBytes)/float64(thr.wireFrames)),
			fmt.Sprintf("%.1f", thr.allocsPerMsg),
			fmt.Sprintf("%d/%d", thr.delivered, thr.total),
			comp, p50, max)
		if err == nil {
			err = checkf(thr.delivered == thr.total, "E15",
				"n=%d: flood did not fully drain (%d of %d delivered)",
				n, thr.delivered, thr.total)
		}
		if err == nil {
			err = checkf(thr.wireFrames == int64(thr.total) && thr.wireBytes == thr.wantBytes, "E15",
				"n=%d: writers report %d bytes in %d frames, the flood encodes to exactly %d bytes in %d",
				n, thr.wireBytes, thr.wireFrames, thr.wantBytes, thr.total)
		}
	}
	t.Notes = append(t.Notes,
		"wall-clock run over real loopback sockets; throughput and allocation numbers are machine-dependent",
		"cells run sequentially because allocs/msg is a process-global ReadMemStats delta",
		"B/frame is gated exactly: bytes written must equal the summed wire.AppendFrame length of the flood's frames (Round i is a varint: a flood frame is 22 B for i < 64, 23 B above)",
		fmt.Sprintf("detection columns come from the E13-style heartbeat scenario at n=%d; '-' rows ran throughput only", detN))
	return t, err
}

type throughputResult struct {
	msgsPerSec   float64
	allocsPerMsg float64
	delivered    int
	total        int
	// Writer-side volume of the measured window, and the bytes its frames
	// encode to.
	wireFrames, wireBytes, wantBytes int64
}

// floodPayload is the i-th message E15's flood sends on every ordered pair.
func floodPayload(i int) consensus.Msg { return consensus.Msg{Inst: "E15", Round: i} }

// runThroughputCell floods a fresh n-process mesh with perPair messages on
// every ordered pair and measures sustained delivery rate, wire bytes per
// frame, and heap allocations per message. A one-frame-per-pair warm-up
// establishes every connection before the measured window so dial latency is
// excluded.
func runThroughputCell(n, perPair int) (throughputResult, error) {
	col := &trace.Collector{}
	// QueueLen must hold a destination's worst-case backlog — (n-1)*perPair
	// frames funnel through each peer queue — so the clean-mesh flood cannot
	// shed frames through overflow and delivered==total stays checkable.
	m, err := tcpnet.New(tcpnet.Config{N: n, Trace: col, QueueLen: 16384})
	if err != nil {
		return throughputResult{}, fmt.Errorf("E15: %w", err)
	}
	defer m.Stop()
	pids := dsys.Pids(n)

	// Drain every delivery so receive buffers stay flat; otherwise the
	// unread backlog's growth would be billed to allocs/msg.
	for _, id := range pids {
		m.Spawn(id, "drain", func(p dsys.Proc) {
			for {
				p.Recv(dsys.MatchKind("flood"))
			}
		})
	}
	flood := func(task string, count int) *sync.WaitGroup {
		var wg sync.WaitGroup
		for _, id := range pids {
			wg.Add(1)
			m.Spawn(id, task, func(p dsys.Proc) {
				defer wg.Done()
				for i := 0; i < count; i++ {
					for _, to := range pids {
						if to != p.ID() {
							p.Send(to, "flood", floodPayload(i))
						}
					}
				}
			})
		}
		return &wg
	}
	waitDelivered := func(target int, timeout time.Duration) {
		deadline := time.Now().Add(timeout)
		for col.Delivered("flood") < target && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	warm := n * (n - 1)
	flood("warm", 1).Wait()
	waitDelivered(warm, 10*time.Second)
	if col.Delivered("flood") < warm {
		return throughputResult{}, fmt.Errorf("E15: n=%d: warm-up frames never drained", n)
	}

	total := n * (n - 1) * perPair
	// Process ids up to 63 take one varint byte, so a flood frame's size
	// depends on i alone and one pair's frames stand for every pair's.
	var wantBytes int64
	var frame []byte
	for i := 0; i < perPair; i++ {
		frame, err = wire.AppendFrame(frame[:0], &wire.Frame{From: 1, To: 2, Kind: "flood", Payload: floodPayload(i)})
		if err != nil {
			return throughputResult{}, fmt.Errorf("E15: %w", err)
		}
		wantBytes += int64(len(frame))
	}
	wantBytes *= int64(n * (n - 1))
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	f0, b0 := m.WireStats()
	start := time.Now()
	wg := flood("flood", perPair)
	waitDelivered(warm+total, 60*time.Second)
	wall := time.Since(start)
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	f1, b1 := m.WireStats()

	res := throughputResult{
		delivered: col.Delivered("flood") - warm, total: total,
		wireFrames: f1 - f0, wireBytes: b1 - b0, wantBytes: wantBytes,
	}
	if wall > 0 {
		res.msgsPerSec = float64(res.delivered) / wall.Seconds()
	}
	if total > 0 {
		res.allocsPerMsg = float64(ms1.Mallocs-ms0.Mallocs) / float64(total)
	}
	return res, nil
}

type detectionResult struct {
	completeness check.Verdict
	detP50       time.Duration
	detMax       time.Duration
	detected     int // survivors that ever suspected the victim
}

// runDetectionCell runs the live heartbeat scenario (runLiveHeartbeat) on an
// n-process TCP mesh and reads each survivor's crash-detection latency off
// the samples: the first sample at which it suspects the victim.
func runDetectionCell(n int) (detectionResult, error) {
	m, err := tcpnet.New(tcpnet.Config{N: n})
	if err != nil {
		return detectionResult{}, fmt.Errorf("E15: %w", err)
	}
	defer m.Stop()
	tr := runLiveHeartbeat(m.Cluster(), n, heartbeat.Options{Period: livePeriod})

	crashAt := tr.Crashed[liveVictim]
	var lats []time.Duration
	for _, id := range tr.CorrectIDs() {
		for _, s := range tr.Rec.Samples(id) {
			if s.At >= crashAt && s.Suspected.Has(liveVictim) {
				lats = append(lats, s.At-crashAt)
				break
			}
		}
	}
	res := detectionResult{completeness: tr.StrongCompleteness(), detected: len(lats)}
	if len(lats) > 0 {
		slices.Sort(lats)
		res.detP50 = lats[len(lats)/2]
		res.detMax = lats[len(lats)-1]
	}
	return res, nil
}
