package engine

import (
	"time"

	"github.com/encdbdb/encdbdb/internal/metrics"
)

// engineMetrics is the engine's instrumentation: query and merge activity as
// counters/histograms, merge backlog as scrape-time sampled gauges. As with
// the wire layer, a nil *engineMetrics is valid and turns every method into a
// no-op, so databases built without WithMetrics pay nothing on the query
// path.
type engineMetrics struct {
	selects        *metrics.Counter
	scanRows       *metrics.Counter
	pins           *metrics.Counter
	merges         *metrics.Counter
	mergeSeconds   *metrics.Histogram
	mergesInflight *metrics.Gauge
	sealBuilds     *metrics.Counter
	sealSeconds    *metrics.Histogram
}

// newEngineMetrics registers the engine families on reg. The backlog gauges
// are sampled at scrape time under the per-table read locks, so one scrape
// sees each table's row/byte backlog consistently without the write path
// pushing updates.
func newEngineMetrics(reg *metrics.Registry, db *DB) *engineMetrics {
	m := &engineMetrics{
		selects:        reg.NewCounter("encdbdb_engine_selects_total", "Select match phases evaluated (materialized and streamed)."),
		scanRows:       reg.NewCounter("encdbdb_engine_scan_rows_total", "Rows in scope of select match phases (pinned main plus delta rows)."),
		pins:           reg.NewCounter("encdbdb_engine_version_pins_total", "Table version pins taken by readers."),
		merges:         reg.NewCounter("encdbdb_engine_merges_total", "Merge pipelines finished, including failed ones."),
		mergeSeconds:   reg.NewHistogram("encdbdb_engine_merge_seconds", "Merge pipeline duration: pin, enclave rebuild, swap."),
		mergesInflight: reg.NewGauge("encdbdb_engine_merges_inflight", "Merge pipelines currently running."),
		sealBuilds:     reg.NewCounter("encdbdb_engine_seal_builds_total", "Seal builds finished (a full tail rebuilt as one run per column), including failed ones."),
		sealSeconds:    reg.NewHistogram("encdbdb_engine_seal_seconds", "Seal build duration: every column's run rebuilt, off the table lock."),
	}
	reg.NewGaugeFunc("encdbdb_engine_merge_backlog_rows", "Delta-store rows awaiting merge, summed over tables.",
		func() float64 { return float64(db.backlog(func(t *table) int { return t.deltaRows })) })
	reg.NewGaugeFunc("encdbdb_engine_merge_backlog_bytes", "Delta-store bytes awaiting merge (sealed runs' split sizes plus tail payloads), summed over tables.",
		func() float64 { return float64(db.backlog(func(t *table) int { return t.deltaBytesLocked() })) })
	return m
}

// backlog sums a per-table quantity over all registered tables, taking each
// table's read lock briefly.
func (db *DB) backlog(f func(t *table) int) int {
	db.mu.RLock()
	tables := make([]*table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.mu.RUnlock()
	total := 0
	for _, t := range tables {
		t.mu.RLock()
		total += f(t)
		t.mu.RUnlock()
	}
	return total
}

// selectPinned records one match phase against a pinned version: the select
// count, the pin, and the rows the scan has in scope.
func (m *engineMetrics) selectPinned(rows int) {
	if m == nil {
		return
	}
	m.selects.Inc()
	m.pins.Inc()
	m.scanRows.Add(uint64(rows))
}

// mergeStarted marks a merge pipeline entering; it returns the start time
// for mergeFinished.
func (m *engineMetrics) mergeStarted() time.Time {
	if m == nil {
		return time.Time{}
	}
	m.mergesInflight.Inc()
	return time.Now()
}

// sealFinished records one finished seal build.
func (m *engineMetrics) sealFinished(start time.Time) {
	if m == nil {
		return
	}
	m.sealBuilds.Inc()
	m.sealSeconds.Observe(time.Since(start).Seconds())
}

// mergeFinished records one finished merge pipeline.
func (m *engineMetrics) mergeFinished(start time.Time) {
	if m == nil {
		return
	}
	m.mergesInflight.Dec()
	m.merges.Inc()
	m.mergeSeconds.Observe(time.Since(start).Seconds())
}
