package udpnet

import "testing"

// TestReorderSourceOnlyWhenReordering: the transport seeds its reorder
// source only when ReorderP can draw from it, as tcpnet's writer seeds its
// ResetP source only when ResetP is positive.
func TestReorderSourceOnlyWhenReordering(t *testing.T) {
	for _, p := range []float64{0, 0.5} {
		tr, err := NewTransport(Config{N: 2, ReorderP: p})
		if err != nil {
			t.Fatal(err)
		}
		if seeded := tr.rng != nil; seeded != (p > 0) {
			t.Errorf("ReorderP %v: reorder source seeded %v", p, seeded)
		}
		tr.Stop()
	}
}
