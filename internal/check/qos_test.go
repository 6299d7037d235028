package check

import (
	"testing"
	"time"

	"repro/internal/dsys"
)

func TestQoSDetectionLatency(t *testing.T) {
	// p2 crashes at 10ms; p1 starts suspecting permanently at 30ms,
	// p3 at 50ms.
	tr := synth(3,
		map[dsys.ProcessID]time.Duration{2: ms(10)},
		map[dsys.ProcessID][]scriptEntry{
			1: {{ms(20), nil, 1}, {ms(30), []dsys.ProcessID{2}, 1}, {ms(40), []dsys.ProcessID{2}, 1}},
			3: {{ms(20), nil, 1}, {ms(30), nil, 1}, {ms(50), []dsys.ProcessID{2}, 1}},
		})
	q := tr.QoS()
	if q.WorstDetection != ms(40) {
		t.Errorf("WorstDetection = %v, want 40ms (p3: 50-10)", q.WorstDetection)
	}
	if q.AvgDetection != ms(30) {
		t.Errorf("AvgDetection = %v, want 30ms ((20+40)/2)", q.AvgDetection)
	}
	if q.Mistakes != 0 {
		t.Errorf("Mistakes = %d", q.Mistakes)
	}
}

func TestQoSMissedCrash(t *testing.T) {
	tr := synth(2,
		map[dsys.ProcessID]time.Duration{2: ms(10)},
		map[dsys.ProcessID][]scriptEntry{
			1: {{ms(20), nil, 1}, {ms(30), nil, 1}},
		})
	q := tr.QoS()
	if q.WorstDetection != -1 || q.AvgDetection != -1 {
		t.Errorf("missed crash should yield -1, got %v/%v", q.WorstDetection, q.AvgDetection)
	}
}

// TestDetection checks the single-target latency against hand-built traces
// and against QoS().WorstDetection, which applies the same rule to every
// (observer, crashed target) pair.
func TestDetection(t *testing.T) {
	crash := map[dsys.ProcessID]time.Duration{3: ms(40)}
	cases := []struct {
		name    string
		scripts map[dsys.ProcessID][]scriptEntry
		want    time.Duration
	}{
		{
			// Every suspicion began before the crash (a false suspicion the
			// crash made true): latency clamps to 0, not "never detected".
			name: "suspected by all since before the crash",
			scripts: map[dsys.ProcessID][]scriptEntry{
				1: {{ms(10), []dsys.ProcessID{3}, 1}, {ms(50), []dsys.ProcessID{3}, 1}},
				2: {{ms(20), []dsys.ProcessID{3}, 1}, {ms(50), []dsys.ProcessID{3}, 1}},
			},
			want: 0,
		},
		{
			name: "one observer never suspects",
			scripts: map[dsys.ProcessID][]scriptEntry{
				1: {{ms(10), nil, 1}, {ms(50), []dsys.ProcessID{3}, 1}},
				2: {{ms(10), nil, 1}, {ms(50), nil, 1}},
			},
			want: -1,
		},
		{
			// p1 suspected p3 early, cleared, and resumed at 70ms; p2 has
			// suspected it since before the crash. The worst observer wins.
			name: "mixed observers",
			scripts: map[dsys.ProcessID][]scriptEntry{
				1: {{ms(10), []dsys.ProcessID{3}, 1}, {ms(50), nil, 1}, {ms(70), []dsys.ProcessID{3}, 1}, {ms(90), []dsys.ProcessID{3}, 1}},
				2: {{ms(30), []dsys.ProcessID{3}, 1}, {ms(90), []dsys.ProcessID{3}, 1}},
			},
			want: ms(30),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := synth(3, crash, tc.scripts)
			got := tr.Detection(3)
			if got != tc.want {
				t.Errorf("Detection = %v, want %v", got, tc.want)
			}
			if worst := tr.QoS().WorstDetection; got != worst {
				t.Errorf("Detection = %v, QoS().WorstDetection = %v", got, worst)
			}
		})
	}
}

func TestQoSMistakeEpisodes(t *testing.T) {
	// p1 falsely suspects p2 (correct) twice: [10,30) and [50,60).
	tr := synth(2, nil, map[dsys.ProcessID][]scriptEntry{
		1: {
			{ms(0), nil, 1},
			{ms(10), []dsys.ProcessID{2}, 1},
			{ms(20), []dsys.ProcessID{2}, 1},
			{ms(30), nil, 1},
			{ms(50), []dsys.ProcessID{2}, 1},
			{ms(60), nil, 1},
		},
		2: {{ms(0), nil, 1}},
	})
	q := tr.QoS()
	if q.Mistakes != 2 {
		t.Errorf("Mistakes = %d, want 2", q.Mistakes)
	}
	if q.AvgMistakeDuration != ms(15) {
		t.Errorf("AvgMistakeDuration = %v, want 15ms ((20+10)/2)", q.AvgMistakeDuration)
	}
}

func TestQoSSuspicionBeforeCrashCountsAsMistakeUntilCrash(t *testing.T) {
	// p1 suspects p2 from 10ms; p2 actually crashes at 40ms: one mistake
	// episode of 30ms, and detection latency 0 (already suspected).
	tr := synth(2,
		map[dsys.ProcessID]time.Duration{2: ms(40)},
		map[dsys.ProcessID][]scriptEntry{
			1: {
				{ms(0), nil, 1},
				{ms(10), []dsys.ProcessID{2}, 1},
				{ms(30), []dsys.ProcessID{2}, 1},
				{ms(50), []dsys.ProcessID{2}, 1},
			},
		})
	q := tr.QoS()
	if q.Mistakes != 1 {
		t.Errorf("Mistakes = %d, want 1", q.Mistakes)
	}
	if q.AvgMistakeDuration != ms(30) {
		t.Errorf("AvgMistakeDuration = %v, want 30ms", q.AvgMistakeDuration)
	}
	if q.WorstDetection != 0 {
		t.Errorf("WorstDetection = %v, want 0", q.WorstDetection)
	}
}

// TestQoSChenMetricsTable drives the Chen-style columns (Mistakes,
// AvgMistakeDuration, MistakeRate, QueryAccuracy) over hand-constructed
// suspicion timelines, including the edge cases the E18 gates lean on:
// a perfectly quiet detector, a suspicion still open at the trace horizon,
// and back-to-back flaps at consecutive samples.
func TestQoSChenMetricsTable(t *testing.T) {
	const eps = 1e-9
	cases := []struct {
		name        string
		n           int
		crashed     map[dsys.ProcessID]time.Duration
		scripts     map[dsys.ProcessID][]scriptEntry
		mistakes    int
		avgMistake  time.Duration
		mistakeRate float64 // episodes per second of observed alive time
		accuracy    float64
	}{
		{
			// Zero mistakes: a clean trace must gate as exactly perfect —
			// rate 0 and accuracy 1, not merely "close".
			name: "zero mistakes",
			n:    2,
			scripts: map[dsys.ProcessID][]scriptEntry{
				1: {{ms(0), nil, 1}, {ms(100), nil, 1}, {ms(200), nil, 1}},
				2: {{ms(0), nil, 2}, {ms(200), nil, 2}},
			},
			mistakes: 0, avgMistake: 0, mistakeRate: 0, accuracy: 1,
		},
		{
			// Suspicion open at the horizon: counts as a mistake (and in the
			// rate), but its unknown duration must not pollute the average.
			name: "open at horizon",
			n:    2,
			scripts: map[dsys.ProcessID][]scriptEntry{
				1: {
					{ms(0), nil, 1},
					{ms(500), []dsys.ProcessID{2}, 1},
					{ms(1000), []dsys.ProcessID{2}, 1},
				},
			},
			// p1 observes p2 alive for 1s; p2 records no samples.
			mistakes: 1, avgMistake: 0, mistakeRate: 1,
			accuracy: 1.0 / 3.0, // of p1's 3 samples about p2, only the first is clear
		},
		{
			// Back-to-back flaps: suspect/clear/suspect/clear at consecutive
			// samples is two distinct episodes, not one long one.
			name: "back-to-back flaps",
			n:    2,
			scripts: map[dsys.ProcessID][]scriptEntry{
				1: {
					{ms(0), nil, 1},
					{ms(100), []dsys.ProcessID{2}, 1},
					{ms(200), nil, 1},
					{ms(300), []dsys.ProcessID{2}, 1},
					{ms(400), nil, 1},
					{ms(500), nil, 1},
				},
			},
			// 2 episodes of 100ms each over 0.5s of observed alive time.
			mistakes: 2, avgMistake: ms(100), mistakeRate: 4,
			accuracy: 4.0 / 6.0,
		},
		{
			// A mistake truncated by the target's real crash: the episode
			// closes at the crash, and post-crash suspicion is accurate
			// detection, not inaccuracy.
			name:    "mistake truncated by crash",
			n:       2,
			crashed: map[dsys.ProcessID]time.Duration{2: ms(300)},
			scripts: map[dsys.ProcessID][]scriptEntry{
				1: {
					{ms(0), nil, 1},
					{ms(100), []dsys.ProcessID{2}, 1},
					{ms(200), []dsys.ProcessID{2}, 1},
					{ms(400), []dsys.ProcessID{2}, 1},
				},
			},
			// Episode [100,300) closes at the crash; alive span is [0,300).
			mistakes: 1, avgMistake: ms(200), mistakeRate: 1.0 / 0.3,
			accuracy: 1.0 / 3.0, // samples at 0,100,200 query an alive p2
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := synth(tc.n, tc.crashed, tc.scripts).QoS()
			if q.Mistakes != tc.mistakes {
				t.Errorf("Mistakes = %d, want %d", q.Mistakes, tc.mistakes)
			}
			if q.AvgMistakeDuration != tc.avgMistake {
				t.Errorf("AvgMistakeDuration = %v, want %v", q.AvgMistakeDuration, tc.avgMistake)
			}
			if diff := q.MistakeRate - tc.mistakeRate; diff < -eps || diff > eps {
				t.Errorf("MistakeRate = %g, want %g", q.MistakeRate, tc.mistakeRate)
			}
			if diff := q.QueryAccuracy - tc.accuracy; diff < -eps || diff > eps {
				t.Errorf("QueryAccuracy = %g, want %g", q.QueryAccuracy, tc.accuracy)
			}
		})
	}
}

func TestQoSNoCrashesNoMistakes(t *testing.T) {
	tr := synth(2, nil, map[dsys.ProcessID][]scriptEntry{
		1: {{ms(10), nil, 1}},
		2: {{ms(10), nil, 1}},
	})
	q := tr.QoS()
	if q.WorstDetection != 0 || q.AvgDetection != 0 || q.Mistakes != 0 || q.AvgMistakeDuration != 0 {
		t.Errorf("QoS = %+v, want zeroes", q)
	}
}
