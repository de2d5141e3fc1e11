package main

import (
	"context"
	"math"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecShape checks BENCHMARK.json against the limits the benchmark
// driver enforces before it runs anything.
func TestSpecShape(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) < 2 || len(sp.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(sp.Workloads))
	}
	if len(sp.EndToEnd) < 1 || len(sp.EndToEnd) > 16 || len(sp.PerLayer) < 1 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", sp.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range sp.Workloads {
		name(w.Name)
		if w.Name != workloadNames()[i] {
			t.Errorf("workload %d is %q, the program runs %q", i, w.Name, workloadNames()[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s with unit s and better lower")
	}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
	}
}

// TestSmoke runs the whole benchmark in-process at smoke size (rows / 100,
// short windows, 20 traced statements per class): every workload must answer
// every statement correctly and emit exactly the metrics BENCHMARK.json
// lists, the end-to-end ones never 0.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(config{seed: 1, clients: 2, outDir: t.TempDir(), workRoot: t.TempDir()})
	cfg.window = 500 * time.Millisecond
	reports, err := runAll(context.Background(), sp, cfg, workloadNames(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(sp.Workloads) {
		t.Fatalf("%d reports for %d workloads", len(reports), len(sp.Workloads))
	}
	for i, r := range reports {
		if r.Workload != sp.Workloads[i].Name {
			t.Errorf("report %d is %q, want %q", i, r.Workload, sp.Workloads[i].Name)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d statements failed: %s", r.Workload, r.Failed, r.Attempted, r.FirstError)
		}
		if len(r.EndToEnd) != len(sp.EndToEnd) || len(r.PerLayer) != len(sp.PerLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics emitted, BENCHMARK.json lists %d and %d",
				r.Workload, len(r.EndToEnd), len(r.PerLayer), len(sp.EndToEnd), len(sp.PerLayer))
		}
		for _, m := range sp.EndToEnd {
			if v, ok := r.EndToEnd[m.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (emitted: %v)", r.Workload, m.Name, v, ok)
			}
		}
		for _, m := range sp.PerLayer {
			if v, ok := r.PerLayer[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (emitted: %v)", r.Workload, m.Name, v, ok)
			}
		}
		// The traced tree must account for the whole statement: the share
		// no replayed stage covers stays small where statements are
		// dominated by one replayable layer.
		if r.Workload == "scan-heavy" && math.Abs(r.PerLayer["trace.unexplained_pct"]) > 50 {
			t.Errorf("scan-heavy: trace.unexplained_pct = %.1f", r.PerLayer["trace.unexplained_pct"])
		}
	}
}

func TestMedianAndGap(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median(4,1,3,2) = %g, want the nearest rank 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g", got)
	}
	if got := relGap(90, 110); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relGap(90,110) = %g, want 0.2", got)
	}
}

// TestSelfTimes: a parent's self time is its duration minus its children's,
// signed, detached spans subtract from nobody, and a tree's self times sum
// to its root's duration.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "stmt", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "proxy", Start: 100, End: 130},
		{ID: 3, Parent: 2, Name: "proxy.decrypt", Start: 130, End: 150},
		{ID: 4, Parent: 1, Name: "wire.select", Start: 150, End: 210},
		{ID: 5, Parent: 4, Name: "engine.select", Start: 210, End: 280}, // slower than its parent's replay
		{ID: 6, Parent: detached, Name: "baseline.plain_select", Start: 280, End: 300},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 10, 2: 10, 3: 20, 4: -10, 5: 70, 6: 20}
	var tree int64
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
		if id != 6 {
			tree += self[id]
		}
	}
	if tree != 100 {
		t.Errorf("self times of the tree sum to %d, the root took 100", tree)
	}
}

// TestOracle pins the plaintext model on a table small enough to check by
// hand.
func TestOracle(t *testing.T) {
	vals := func(s ...string) [][]byte {
		out := make([][]byte, len(s))
		for i := range s {
			out[i] = []byte(s[i])
		}
		return out
	}
	tb := newTable("t", []*column{
		newColumn(ed("a", 1, 4, 0), vals("b", "a", "c", "b", "d")),
		newColumn(ed("n", 1, 4, 0), vals("0010", "0002", "0030", "0004", "0050")),
	})
	w := &workload{}
	between := pred{col: 0, lo: []byte("b"), hi: []byte("c"), rlo: 1, rhi: 2}
	if got := tb.count([]pred{between}); got != 3 {
		t.Errorf("COUNT(a BETWEEN b AND c) = %d, want 3", got)
	}
	s := w.build(0, tb, shape{form: formOrderLimit, proj: []string{"a", "n"}, orderBy: "a", limit: 2}, []pred{between})
	if want := checksum([][]string{{"b", "0010"}, {"b", "0004"}}); s.want.count != 2 || s.want.sum != want {
		t.Errorf("ORDER BY a LIMIT 2 = %+v, want the two b rows in RecordID order", s.want)
	}
	if s.text != "SELECT a, n FROM t WHERE a BETWEEN 'b' AND 'c' ORDER BY a LIMIT 2" || w.templates[s.tmpl] != "SELECT a, n FROM t WHERE a BETWEEN ? AND ? ORDER BY a LIMIT 2" {
		t.Errorf("rendered %q / %q", s.text, w.templates[s.tmpl])
	}
	agg := w.build(0, tb, shape{form: formAggregate, proj: []string{"n", "a", "a"}}, []pred{between})
	if want := checksum([][]string{{"44", "b", "c"}}); agg.want.sum != want {
		t.Errorf("SUM(n), MIN(a), MAX(a) checksum mismatch")
	}
}
