package codec

import (
	"fmt"
	"testing"
)

// TestInternBounded verifies the per-connection string cache stops growing
// at its cap but keeps answering correctly, so a peer inventing identifiers
// cannot grow server memory.
func TestInternBounded(t *testing.T) {
	var in Intern
	for i := 0; i < 2*internLimit; i++ {
		s := fmt.Sprintf("col%d", i)
		if got := in.Get([]byte(s)); got != s {
			t.Fatalf("get(%q) = %q", s, got)
		}
	}
	if len(in.m) > internLimit {
		t.Errorf("intern map grew to %d entries, cap is %d", len(in.m), internLimit)
	}
	if got := in.Get([]byte("col1")); got != "col1" {
		t.Errorf("cached lookup = %q", got)
	}
	if got := in.Get(nil); got != "" {
		t.Errorf("get(nil) = %q", got)
	}
}
