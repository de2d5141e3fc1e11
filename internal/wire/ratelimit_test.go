package wire

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb/internal/metrics"
)

// TestTokenBucket pins the bucket arithmetic: a fresh bucket holds its burst,
// refills continuously at the configured rate, and never overflows the burst.
func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(2) // 2 rps, burst 2
	now := b.last
	if !b.allow(now) || !b.allow(now) {
		t.Fatal("fresh bucket must allow its burst")
	}
	if b.allow(now) {
		t.Fatal("empty bucket must reject")
	}
	// Half a second refills one token at 2 rps.
	now = now.Add(500 * time.Millisecond)
	if !b.allow(now) {
		t.Fatal("refilled bucket must allow")
	}
	if b.allow(now) {
		t.Fatal("single refilled token must not allow twice")
	}
	// A long idle period caps at the burst, not the elapsed budget.
	now = now.Add(time.Hour)
	if !b.allow(now) || !b.allow(now) {
		t.Fatal("idle bucket must hold its burst")
	}
	if b.allow(now) {
		t.Fatal("idle bucket must not exceed its burst")
	}
}

// TestConnRateLimit checks the end-to-end shed: a connection that exhausts
// its budget gets the typed ErrRateLimited sentinel across the wire — no
// server-side work starts — and the shed is counted. The rate is tiny so the
// bucket cannot refill mid-test.
func TestConnRateLimit(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, addr := startAdmissionServer(t, nil,
		WithConnRate(0.001), WithMetrics(reg), WithDrainTimeout(time.Second))
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Burst is max(1, rate) = 1: the first request spends it...
	if err := c.CreateTable(plainSchema("rl")); err != nil {
		t.Fatal(err)
	}
	// ...and every further request on this connection is shed, typed.
	_, shedErr := c.Rows("rl")
	if !errors.Is(shedErr, ErrRateLimited) {
		t.Fatalf("over-budget request: err = %v, want ErrRateLimited", shedErr)
	}
	if errors.Is(shedErr, ErrServerBusy) {
		t.Fatal("rate-limit shed must not alias the busy sentinel")
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "encdbdb_wire_rate_limited_total 1") {
		t.Errorf("exposition missing rate-limited counter; got:\n%s", b.String())
	}
	// A fresh connection brings a fresh bucket: the limit is per connection,
	// not per server.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if n, err := c2.Rows("rl"); err != nil || n != 0 {
		t.Fatalf("fresh connection = %d, %v; want 0, nil", n, err)
	}
}
