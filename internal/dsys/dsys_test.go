package dsys

import (
	"reflect"
	"testing"
	"time"
)

func TestParseCrashes(t *testing.T) {
	const n = 5
	cases := []struct {
		in   string
		want map[ProcessID]time.Duration
		err  bool
	}{
		{in: "", want: map[ProcessID]time.Duration{}},
		{in: "2@300ms,5@600ms", want: map[ProcessID]time.Duration{2: 300 * time.Millisecond, 5: 600 * time.Millisecond}},
		{in: "2@300ms, 5@1s", want: map[ProcessID]time.Duration{2: 300 * time.Millisecond, 5: time.Second}},
		{in: "2@soon", err: true},
		{in: "2", err: true},
		{in: "0@1s", err: true},
		{in: "6@1s", err: true},
		{in: "2@-5ms", err: true},
		{in: "2@300ms,2@100ms", err: true},
		{in: "2@300ms 7", err: true},
	}
	for _, tc := range cases {
		got, err := ParseCrashes(tc.in, n)
		if tc.err {
			if err == nil {
				t.Errorf("ParseCrashes(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseCrashes(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
