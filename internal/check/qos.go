package check

import (
	"time"

	"repro/internal/dsys"
)

// QoS aggregates quality-of-service metrics of a failure detector over a
// recorded trace, in the spirit of Chen, Toueg and Aguilera ("On the quality
// of service of failure detectors"): how fast real crashes are detected, how
// often correct processes are wrongly suspected, and how long such mistakes
// last. These complement the binary eventual properties: two ◇P detectors
// can differ wildly in QoS.
type QoS struct {
	// WorstDetection is the largest crash-detection latency over all
	// (correct observer, crashed target) pairs: the time from the crash to
	// the first sample of the observer's final, uninterrupted suspicion of
	// the target. -1 if some crash was never (permanently) detected.
	WorstDetection time.Duration
	// AvgDetection averages that latency over all pairs (-1 as above).
	AvgDetection time.Duration
	// Mistakes counts false-suspicion episodes: transitions into suspicion
	// of a process that had not crashed at that sample, summed over all
	// correct observers.
	Mistakes int
	// AvgMistakeDuration is the mean duration of closed mistake episodes
	// (from the first suspecting sample to the first clear sample). Zero if
	// there were no closed mistakes. Episodes still open at the trace horizon
	// count in Mistakes and MistakeRate but not here — their true duration is
	// unknown.
	AvgMistakeDuration time.Duration
	// MistakeRate is Chen's λ_M: mistake episodes per second of observed
	// alive time, where alive time sums, over all (correct observer, target)
	// pairs, the sampled span during which the target had not crashed. Zero
	// when no alive time was observed.
	MistakeRate float64
	// QueryAccuracy is Chen's P_A: the probability that a query about an
	// alive process returns "not suspected", estimated as the fraction of
	// (sample, alive target) points where the observer did not suspect the
	// target. 1 when the trace contains no such points (vacuously accurate).
	QueryAccuracy float64
}

// QoS computes the metrics from the recorded samples and crash times.
func (t FDTrace) QoS() QoS {
	q := QoS{}
	var detSum time.Duration
	detPairs := 0
	missed := false
	var mistakeSum time.Duration
	closedMistakes := 0
	var aliveSpan time.Duration // summed sampled alive time over all pairs
	aliveQueries, accurate := 0, 0

	for _, p := range t.CorrectIDs() {
		ss := t.Rec.Samples(p)
		for _, target := range dsys.Pids(t.N) {
			if target == p {
				continue
			}
			crashAt, crashed := t.Crashed[target]

			// Mistake episodes: suspicion intervals that begin while the
			// target is alive.
			inMistake := false
			var mistakeStart time.Duration
			for _, s := range ss {
				suspected := s.Suspected.Has(target)
				aliveAt := !crashed || s.At < crashAt
				if aliveAt {
					aliveQueries++
					if !suspected {
						accurate++
					}
				}
				switch {
				case suspected && !inMistake && aliveAt:
					inMistake = true
					mistakeStart = s.At
					q.Mistakes++
				case !suspected && inMistake:
					inMistake = false
					mistakeSum += s.At - mistakeStart
					closedMistakes++
				case suspected && inMistake && crashed && s.At >= crashAt:
					// The "mistake" outlived the target: once the target is
					// actually crashed the episode stops counting as wrong.
					inMistake = false
					mistakeSum += crashAt - mistakeStart
					closedMistakes++
				}
			}

			// Sampled alive span of this pair: first sample to the earlier of
			// the last sample and the crash.
			if len(ss) > 0 {
				horizon := ss[len(ss)-1].At
				if crashed && crashAt < horizon {
					horizon = crashAt
				}
				if span := horizon - ss[0].At; span > 0 {
					aliveSpan += span
				}
			}

			if crashed {
				if lat, ok := detectionLatency(ss, target, crashAt); ok {
					detSum += lat
					q.WorstDetection = max(q.WorstDetection, lat)
					detPairs++
				} else {
					missed = true
				}
			}
		}
	}
	if missed {
		q.WorstDetection = -1
		q.AvgDetection = -1
	} else if detPairs > 0 {
		q.AvgDetection = detSum / time.Duration(detPairs)
	}
	if closedMistakes > 0 {
		q.AvgMistakeDuration = mistakeSum / time.Duration(closedMistakes)
	}
	if aliveSpan > 0 {
		q.MistakeRate = float64(q.Mistakes) / aliveSpan.Seconds()
	}
	q.QueryAccuracy = 1
	if aliveQueries > 0 {
		q.QueryAccuracy = float64(accurate) / float64(aliveQueries)
	}
	return q
}

// Detection returns the crash-detection latency of target alone: the
// largest, over correct observers, of the time from target's crash to the
// first sample of the observer's final uninterrupted suspicion of it — the
// rule QoS applies to every pair. It returns -1 if target did not crash or
// some correct observer does not suspect it permanently. Unlike QoS it
// visits each observer's samples once, so it stays linear at large n.
func (t FDTrace) Detection(target dsys.ProcessID) time.Duration {
	crashAt, crashed := t.Crashed[target]
	if !crashed {
		return -1
	}
	var worst time.Duration
	for _, p := range t.CorrectIDs() {
		lat, ok := detectionLatency(t.Rec.Samples(p), target, crashAt)
		if !ok {
			return -1
		}
		worst = max(worst, lat)
	}
	return worst
}

// detectionLatency returns the time from crashAt to the start of the final
// uninterrupted suspicion of target in ss, clamped at 0 when that suspicion
// began before the crash, and false if the last sample does not suspect
// target.
func detectionLatency(ss []FDSample, target dsys.ProcessID, crashAt time.Duration) (time.Duration, bool) {
	i := len(ss)
	for i > 0 && ss[i-1].Suspected.Has(target) {
		i--
	}
	if i == len(ss) {
		return 0, false
	}
	return max(ss[i].At-crashAt, 0), true
}
