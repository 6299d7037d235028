package expt

import (
	"time"

	"repro/internal/check"
	"repro/internal/dsys"
	"repro/internal/fd/fdlab"
	"repro/internal/network"
)

// E12DetectorQoS is a supplementary experiment (no direct paper table): the
// quality-of-service profile — detection latency, false-suspicion episodes
// and their durations, à la Chen–Toueg–Aguilera — of every ◇P-capable stack
// in the repository, under identical pre-GST chaos and crash schedule. It
// quantifies the trade-off behind the paper's Section 4 cost argument: the
// cheap leader-centric transformation buys its 2(n−1) messages with
// detection latency close to the n²-message heartbeat detector, while the
// ring's list propagation pays in latency.
func E12DetectorQoS(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Detector quality of service under pre-GST chaos (supplementary; n=8, crash after GST)",
		Claim:   "supplement to Sections 3–4: cost vs detection-speed vs mistake profile of each ◇P-capable stack",
		Columns: []string{"detector", "msgs/period", "worst detection", "avg detection", "mistakes", "avg mistake dur"},
	}
	n := 8
	gst := 300 * time.Millisecond
	crashAt := 700 * time.Millisecond
	runFor := 3 * time.Second
	if quick {
		runFor = 2 * time.Second
	}
	net := network.PartiallySynchronous{
		GST:    gst,
		Delta:  10 * time.Millisecond,
		PreGST: network.Uniform{Min: 0, Max: 60 * time.Millisecond},
	}
	period := 10 * time.Millisecond
	rows := []struct{ name, stack string }{
		{"heartbeat ◇P", "heartbeat"},
		{"ring ◇C", "ring"},
		{"transform over scripted ◇C", "transform-scripted"},
		{"amplified neighbor ◇Q→◇P", "amplified-neighbor"},
	}
	qos := runTrials(len(rows), func(i int) check.QoS {
		res := fdlab.Run(fdlab.Setup{
			N:           n,
			Seed:        int64(1200 + i),
			Net:         net,
			Crashes:     map[dsys.ProcessID]time.Duration{dsys.ProcessID(n / 2): crashAt},
			Build:       fdlab.MustStack(rows[i].stack).Build(period),
			RunFor:      runFor,
			SampleEvery: 2 * time.Millisecond,
		})
		return res.Trace.QoS()
	})
	var err error
	for i, r := range rows {
		q := qos[i]
		worst, avg := "-", "-"
		if q.WorstDetection >= 0 {
			worst, avg = msd(q.WorstDetection), msd(q.AvgDetection)
		}
		t.AddRow(r.name, fdlab.MustStack(r.stack).PerPeriod(n), worst, avg, q.Mistakes, msd(q.AvgMistakeDuration))
		if err == nil {
			err = checkf(q.WorstDetection >= 0, "E12", "%s never detected the crash", r.name)
		}
	}
	t.Notes = append(t.Notes, "msgs/period is the steady-state formula from E3; mistakes stem from the chaotic pre-GST phase and must all be retracted (eventual accuracy)")
	return t, err
}
