package expt

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dsys"
	"repro/internal/network"
	"repro/internal/sim"
)

// E17PipelineThroughput measures what batching and pipelining buy the
// replicated log end to end: committed ops/s and per-command commit latency
// as a function of batch size × pipeline depth at n=5, on both runtimes.
//
// Sim half (deterministic): each cell preloads every replica's pending
// buffer and measures the virtual time until the whole load is applied
// everywhere, plus how many consensus slots it took — making the
// amortization visible (ops ≫ slots once MaxBatch > 1, overlapped once
// Pipeline > 1). Gates: the tuned cell must commit ≥5× the ops/s of the
// unbatched sequential baseline (≥3× in quick mode — the CI smoke's
// self-relative bound; no absolute machine numbers), and every cell's
// applied logs must be identical across all five replicas.
//
// Live half (wall-clock): real ecnode processes + closed-loop ecload,
// baseline (max_batch=1, pipeline=1) vs tuned (core defaults) — the tuned
// run must again commit ≥3× the baseline — and a tuned run with the leader
// SIGKILLed and restarted mid-load, re-proving E16's recovery gates with
// pipelining on: catch-up under 2.5s and no interior zero-ops second. The
// detector and consensus layers are untouched by the batching layer above
// them, so detection/recovery behaviour must match E16's.
func E17PipelineThroughput(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E17",
		Title:   "Batched + pipelined replicated-log commits: ops/s and latency vs batch size × pipeline depth, n=5 (supplementary; wall-clock live half)",
		Claim:   "one-round ◇C consensus per slot turns into end-to-end throughput when slots carry command batches and a bounded window of instances runs ahead: committed ops/s scales with the batch, while slot order (and the detector layer under it) is unchanged",
		Columns: []string{"runtime", "batch", "pipe", "ops", "slots", "ops/s", "speedup", "p50", "p99", "p99.9", "catchup", "dip/s"},
	}

	type simCell struct{ batch, pipe int }
	cells := []simCell{
		{1, 1}, {1, 4}, {1, 8},
		{16, 1}, {16, 4}, {16, 8},
		{64, 1}, {64, 4}, {64, 8},
	}
	perOrigin, wantSpeedup := 160, 5.0
	if quick {
		cells = []simCell{{1, 1}, {64, 4}}
		perOrigin, wantSpeedup = 60, 3.0
	}
	const (
		n        = 5
		submitAt = 20 * time.Millisecond
	)
	total := n * perOrigin

	type simResult struct {
		opsPerSec float64
		slots     int
		drained   bool
		agree     bool
	}
	results := runTrials(len(cells), func(i int) simResult {
		c := cells[i]
		k := sim.New(sim.Config{N: n, Seed: 17, Network: network.Reliable{
			Latency: network.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond},
		}})
		reps := make(map[dsys.ProcessID]*core.Replica, n)
		for _, id := range dsys.Pids(n) {
			id := id
			k.Spawn(id, "replica", func(p dsys.Proc) {
				reps[id] = core.StartReplica(p, core.Config{MaxBatch: c.batch, Pipeline: c.pipe})
			})
		}
		// Preload every origin's pending buffer at once: the cell measures
		// drain throughput at saturation, not submit pacing.
		k.ScheduleFunc(submitAt, func(time.Duration) {
			for _, id := range dsys.Pids(n) {
				for j := 0; j < perOrigin; j++ {
					reps[id].Submit(fmt.Sprintf("%v-%d", id, j))
				}
			}
		})
		drainedAt := time.Duration(-1)
		k.Every(submitAt+5*time.Millisecond, time.Millisecond, func(now time.Duration) {
			if drainedAt >= 0 {
				return
			}
			for _, id := range dsys.Pids(n) {
				if reps[id].AppliedLen() < total {
					return
				}
			}
			drainedAt = now
		})
		k.Run(30 * time.Second)
		r := simResult{drained: drainedAt >= 0, agree: true}
		ref := reps[1].Applied()
		for _, id := range dsys.Pids(n) {
			if !reflect.DeepEqual(reps[id].Applied(), ref) {
				r.agree = false
			}
		}
		if len(ref) > 0 {
			r.slots = ref[len(ref)-1].Slot
		}
		if r.drained {
			r.opsPerSec = float64(total) / (drainedAt - submitAt).Seconds()
		}
		return r
	})

	var err error
	baselineOps := results[0].opsPerSec // cells[0] is always {1, 1}
	var tunedSpeedup float64
	for i, c := range cells {
		r := results[i]
		speedup := "-"
		if i > 0 && baselineOps > 0 {
			speedup = fmt.Sprintf("%.1fx", r.opsPerSec/baselineOps)
		}
		t.AddRow("sim", c.batch, c.pipe, total, r.slots,
			fmt.Sprintf("%.0f", r.opsPerSec), speedup, "-", "-", "-", "-", "-")
		if err == nil {
			err = checkf(r.drained, "E17", "sim batch=%d pipe=%d: load never fully applied", c.batch, c.pipe)
		}
		if err == nil {
			err = checkf(r.agree, "E17", "sim batch=%d pipe=%d: applied logs differ across replicas", c.batch, c.pipe)
		}
		if err == nil && c.batch > 1 {
			err = checkf(r.slots < total, "E17",
				"sim batch=%d pipe=%d: %d ops took %d slots — no amortization", c.batch, c.pipe, total, r.slots)
		}
		if baselineOps > 0 && r.opsPerSec/baselineOps > tunedSpeedup {
			tunedSpeedup = r.opsPerSec / baselineOps
		}
	}
	if err == nil {
		err = checkf(tunedSpeedup >= wantSpeedup, "E17",
			"best batched+pipelined cell is only %.1fx the unbatched sequential baseline, want >= %.0fx", tunedSpeedup, wantSpeedup)
	}

	// ---- Live half: real processes, closed-loop clients. ----
	loadDur, killDur, killAt := 8*time.Second, 12*time.Second, 3*time.Second
	const conc = 48
	if quick {
		loadDur, killDur, killAt = 5*time.Second, 8*time.Second, 2*time.Second
	}
	const catchupBound = 2500 * time.Millisecond // E16's regression bound, unchanged

	dir, derr := os.MkdirTemp("", "e17-")
	if derr != nil {
		return t, derr
	}
	defer os.RemoveAll(dir)
	bins, berr := cluster.Build(dir)
	if berr != nil {
		return t, berr
	}

	type liveCell struct {
		name        string
		batch, pipe int // 0 = core defaults (the tuned configuration)
		kill        bool
		dur         time.Duration
	}
	liveCells := []liveCell{
		{"baseline", 1, 1, false, loadDur},
		{"tuned", 0, 0, false, loadDur},
		{"tuned+leader-kill", 0, 0, true, killDur},
	}
	var liveBaseline float64
	for ci, lc := range liveCells {
		runCell := func() error {
			cellDir, cerr := os.MkdirTemp(dir, "cell-")
			if cerr != nil {
				return cerr
			}
			specs, gerr := cluster.GenerateTuned(cellDir, n, cluster.DetectorRing, 10, lc.batch, lc.pipe)
			if gerr != nil {
				return gerr
			}
			nodes := make([]*cluster.Node, n)
			for i, sp := range specs {
				if nodes[i], gerr = cluster.StartNode(bins.Ecnode, sp, cellDir); gerr != nil {
					return gerr
				}
				defer nodes[i].Stop(2 * time.Second)
			}
			addrs := cluster.ClientAddrs(specs)
			leader, lerr := cluster.AwaitAgreedLeader(addrs, 60*time.Second)
			if lerr != nil {
				return lerr
			}
			ld, lerr := cluster.StartLoad(bins.Ecload, addrs, lc.dur, conc, 0, cellDir)
			if lerr != nil {
				return lerr
			}
			catchup := time.Duration(-1)
			if lc.kill {
				var survivors []string
				for i, a := range addrs {
					if i != leader-1 {
						survivors = append(survivors, a)
					}
				}
				time.Sleep(killAt)
				if kerr := nodes[leader-1].Kill(); kerr != nil {
					return kerr
				}
				time.Sleep(1500 * time.Millisecond)
				if rerr := nodes[leader-1].Restart(); rerr != nil {
					return rerr
				}
				restarted := time.Now()
				if awaitAll(60*time.Second, func() bool {
					vict, verr := cluster.Status(addrs[leader-1], time.Second)
					if verr != nil {
						return false
					}
					for _, a := range survivors {
						st, serr := cluster.Status(a, time.Second)
						if serr != nil || vict.Applied < st.Applied {
							return false
						}
					}
					return vict.Applied > 0
				}) {
					catchup = time.Since(restarted)
				}
			}
			rep, werr := ld.Wait()
			if werr != nil {
				return werr
			}
			cat, dip := "-", "-"
			if lc.kill {
				cat, dip = msdOrTimeout(catchup), fmt.Sprint(rep.MinInteriorSecond())
				t.Notes = append(t.Notes, fmt.Sprintf("%s committed/s timeline: %v", lc.name, rep.PerSecond))
			}
			speedup := "-"
			if ci == 0 {
				liveBaseline = rep.OpsPerSec
			} else if liveBaseline > 0 {
				speedup = fmt.Sprintf("%.1fx", rep.OpsPerSec/liveBaseline)
			}
			batchCell, pipeCell := fmt.Sprint(lc.batch), fmt.Sprint(lc.pipe)
			if lc.batch == 0 {
				batchCell, pipeCell = "def", "def"
			}
			t.AddRow("live/"+lc.name, batchCell, pipeCell, rep.Committed, "-",
				fmt.Sprintf("%.0f", rep.OpsPerSec), speedup,
				fmt.Sprintf("%.1fms", rep.P50MS),
				fmt.Sprintf("%.1fms", rep.P99MS),
				fmt.Sprintf("%.1fms", rep.P999MS),
				cat, dip)
			if err == nil {
				err = checkf(rep.Committed > 0, "E17", "live %s: no operation ever committed", lc.name)
			}
			if ci == 1 && err == nil && liveBaseline > 0 {
				err = checkf(rep.OpsPerSec >= 3*liveBaseline, "E17",
					"live tuned run committed %.0f ops/s vs unbatched %.0f — want >= 3x in the same job", rep.OpsPerSec, liveBaseline)
			}
			if lc.kill {
				if err == nil {
					err = checkf(catchup >= 0, "E17", "restarted leader never caught the survivors' log under pipelined load")
				}
				if err == nil {
					err = checkf(catchup < catchupBound, "E17",
						"leader catch-up took %v with pipelining on, want < %v (E16's gate)", catchup, catchupBound)
				}
				if err == nil {
					err = checkf(rep.MinInteriorSecond() > 0, "E17",
						"a whole second passed with zero committed ops during leader kill+restart — the pipelined frontier stalled")
				}
			}
			// Safety under batching: all replicas agree on the common prefix.
			logs := make([][]string, 0, n)
			for i, a := range addrs {
				l, ferr := cluster.FetchLog(a, 10*time.Second)
				if ferr != nil {
					return fmt.Errorf("live %s: p%d log fetch: %w", lc.name, i+1, ferr)
				}
				logs = append(logs, l)
			}
			for i := 1; i < len(logs); i++ {
				m := len(logs[0])
				if len(logs[i]) < m {
					m = len(logs[i])
				}
				for s := 0; s < m; s++ {
					if logs[0][s] != logs[i][s] {
						if err == nil {
							err = checkf(false, "E17", "live %s: replicas diverged on the applied prefix at slot %d", lc.name, s)
						}
						return nil
					}
				}
			}
			return nil
		}
		if cerr := runCell(); cerr != nil {
			return t, cerr
		}
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("sim cells: n=%d replicas, %d commands per origin preloaded, uniform 1-3ms links; ops/s = total applied / virtual drain time; slots = consensus instances consumed (amortization = ops/slots)", n, perOrigin),
		fmt.Sprintf("live cells: n=%d real ecnode processes, closed-loop ecload with %d workers (rate uncapped); baseline pins max_batch=1 pipeline=1, tuned uses core defaults (MaxBatch 64, Pipeline 4)", n, conc),
		"speedup is self-relative within the same run/job — no absolute machine numbers are asserted",
		"the leader-kill cell re-proves E16's recovery gates with pipelining on: batch state transfer + caught-up leadership are pipeline-aware (in-flight window slots are not lag), so catch-up stays bounded and no interior second commits zero ops",
		"latency percentiles are per command (each client op is one command), so they price what batching costs an individual commit",
	)
	return t, err
}
