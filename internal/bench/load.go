package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/wire"
	"github.com/encdbdb/encdbdb/internal/workload"
)

// Load generator shape: the server is sized small on purpose so the
// saturation sweep actually reaches (and crosses) capacity within a
// CI-friendly run — the experiment measures the admission-control posture,
// not absolute host throughput.
const (
	// loadConnWorkers bounds server-side execution concurrency.
	loadConnWorkers = 4
	// loadQueueDepth bounds outstanding admitted requests; beyond it the
	// server sheds with wire.ErrServerBusy.
	loadQueueDepth = 64
	// loadEstimateWorkers is the closed-loop fan-in of the capacity probe.
	loadEstimateWorkers = 8
	// loadWarmupFraction of each measurement window is discarded.
	loadWarmupFraction = 0.2
	// loadGenWorkers is the open-loop generator's launch pool, sized well
	// past the server's execution + queue bound so that at every swept rate
	// the server's admission control — not the generator — decides what is
	// shed. When even this pool is saturated, the arrival is counted as shed
	// at the generator rather than delayed: delaying it would be coordinated
	// omission, measuring only the latencies the server was ready for.
	loadGenWorkers = 4 * loadQueueDepth
)

// loadFractions are the sweep's offered-load points as fractions of the
// estimated closed-loop capacity: two underload points, near-saturation,
// and two overload points where shedding must engage.
var loadFractions = []float64{0.5, 0.8, 1.0, 1.5, 2.5}

// LoadPoint is one measured offered-load level of the saturation sweep.
type LoadPoint struct {
	// TargetQPS is the open-loop arrival rate the generator aimed for;
	// OfferedQPS what it actually offered. The generator keeps arrivals on
	// an absolute schedule and sheds on the spot when no launcher is idle,
	// so the two track each other even past saturation — a gap would mean
	// coordinated omission crept back in.
	TargetQPS  float64 `json:"target_qps"`
	OfferedQPS float64 `json:"offered_qps"`
	// GoodputQPS counts successful responses per second; ShedRate the
	// fraction of offered requests rejected with the busy error, including
	// arrivals shed at the generator (GenDropped) because every launcher
	// was occupied.
	GoodputQPS float64 `json:"goodput_qps"`
	ShedRate   float64 `json:"shed_rate"`
	GenDropped int     `json:"gen_dropped"`
	// P50Ms/P99Ms are latency percentiles of the successful requests.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// Errors counts failures other than the busy rejection (0 in a healthy
	// run).
	Errors int `json:"errors"`
}

// LoadReport is the machine-readable result written to LoadJSONPath, under
// the envelope's "results" key.
type LoadReport struct {
	CapacityQPS float64     `json:"capacity_qps"`
	ConnWorkers int         `json:"conn_workers"`
	QueueDepth  int         `json:"queue_depth"`
	GenWorkers  int         `json:"gen_workers"`
	WindowMs    float64     `json:"window_ms"`
	Points      []LoadPoint `json:"points"`
}

// Load is the sustained-traffic experiment: an open-loop generator drives
// point queries at fixed arrival rates against a loopback provider running
// with production admission control (bounded dispatch queue, busy shedding).
// Unlike a closed-loop benchmark, arrivals do not wait for
// responses — exactly the regime where an unbounded queue would let latency
// run away. The sweep reports, per offered-load level, the goodput, the shed
// rate, and the p99 of the successful requests: the acceptance shape is a
// p99 that stays bounded past saturation because the overload is shed
// immediately rather than queued.
func Load(cfg Config) error {
	rows := cfg.Rows[0]
	if rows > 128 {
		rows = 128
	}
	col := workload.Generate(workload.C2().Scaled(rows), cfg.Seed)
	def := defFor(dict.ED1, col.Profile.ValueLen, cfg.BSMax, false)

	sys, err := newSystem()
	if err != nil {
		return err
	}
	const table = "load0"
	if err := sys.loadTable(table, def, col.Values, cfg.Seed); err != nil {
		return err
	}
	gen, err := workload.NewQueryGen(col, cfg.RangeSizes[0], cfg.Seed)
	if err != nil {
		return err
	}
	filters, err := sys.prepareFilters(table, def, gen, cfg.Queries)
	if err != nil {
		return err
	}

	srv := wire.NewServer(sys.db, nil,
		wire.WithConnWorkers(loadConnWorkers),
		wire.WithQueueDepth(loadQueueDepth),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	defer srv.Close()

	conn, err := wire.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	query := func(i int) error {
		f := filters[i%len(filters)]
		_, err := conn.Select(context.Background(),
			engine.Query{Table: table, Filters: []engine.Filter{f}, CountOnly: true})
		return err
	}

	window := cfg.LoadWindow
	if window <= 0 {
		window = 500 * time.Millisecond
	}

	capacity, err := estimateCapacity(query, window)
	if err != nil {
		return err
	}

	report := LoadReport{
		CapacityQPS: capacity,
		ConnWorkers: loadConnWorkers,
		QueueDepth:  loadQueueDepth,
		GenWorkers:  loadGenWorkers,
		WindowMs:    float64(window.Milliseconds()),
	}
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "offered load\ttarget\tgoodput\tshed rate\tp50\tp99\n")
	for _, frac := range loadFractions {
		p, err := runLoadPoint(query, frac*capacity, window)
		if err != nil {
			return err
		}
		report.Points = append(report.Points, p)
		fmt.Fprintf(tw, "%.1fx capacity\t%.0f qps\t%.0f qps\t%.1f%%\t%s\t%s\n",
			frac, p.TargetQPS, p.GoodputQPS, 100*p.ShedRate, ms(p.P50Ms*1000), ms(p.P99Ms*1000))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	cfg.printf("(open loop, capacity estimate %.0f qps closed-loop; server: %d workers, queue %d; window %v + %d%% warmup)\n",
		capacity, loadConnWorkers, loadQueueDepth, window, int(100*loadWarmupFraction))

	if cfg.LoadJSONPath != "" {
		return writeJSON(cfg, cfg.LoadJSONPath, rows, report)
	}
	return nil
}

// estimateCapacity measures closed-loop throughput with a small worker pool
// for one window — the reference the open-loop sweep scales its offered
// rates from.
func estimateCapacity(query func(i int) error, window time.Duration) (float64, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int
		fail  error
	)
	deadline := time.Now().Add(window)
	for w := 0; w < loadEstimateWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 0
			for i := w; time.Now().Before(deadline); i += loadEstimateWorkers {
				if err := query(i); err != nil {
					mu.Lock()
					fail = err
					mu.Unlock()
					return
				}
				n++
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if fail != nil {
		return 0, fail
	}
	if total == 0 {
		return 0, errors.New("bench: capacity estimate completed zero queries")
	}
	return float64(total) / window.Seconds(), nil
}

// loadOutcome is one offered request's fate, stamped with its scheduled
// arrival so warmup trimming uses arrival time, not completion time.
type loadOutcome struct {
	arrival time.Time
	latency float64 // seconds, successful requests only
	busy    bool
	failed  bool
	genDrop bool // shed at the generator: no launcher was idle at arrival
}

// loadArrival is one scheduled request handed from the pacer to a launcher.
type loadArrival struct {
	i     int
	sched time.Time
}

// runLoadPoint offers requests open-loop at targetQPS for warmup+window and
// aggregates the post-warmup outcomes.
//
// The arrival process must not be slowed by the system under test, or the
// sweep commits coordinated omission — it would measure only the latencies
// the server was ready to serve. Two mechanisms keep it honest: arrival k is
// due at start + k·interval on an absolute schedule (lag never accumulates
// into a silently lower offered rate), and a due arrival is handed to an
// idle launcher via a non-blocking send — if the whole launch pool is busy,
// the arrival is recorded as shed on the spot instead of waiting. Successful
// requests are timed from their scheduled arrival, so any launch lag counts
// against the server exactly as a real on-schedule client would feel it.
func runLoadPoint(query func(i int) error, targetQPS float64, window time.Duration) (LoadPoint, error) {
	if targetQPS < 1 {
		targetQPS = 1
	}
	interval := float64(time.Second) / targetQPS
	warmup := time.Duration(loadWarmupFraction * float64(window))
	start := time.Now()
	end := start.Add(warmup + window)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		outcomes []loadOutcome
	)
	// Unbuffered: a handoff succeeds only when a launcher is parked on the
	// receive, ready to issue the request immediately.
	arrivals := make(chan loadArrival)
	for w := 0; w < loadGenWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []loadOutcome
			for a := range arrivals {
				err := query(a.i)
				o := loadOutcome{arrival: a.sched}
				switch {
				case err == nil:
					o.latency = time.Since(a.sched).Seconds()
				case errors.Is(err, wire.ErrServerBusy):
					o.busy = true
				default:
					o.failed = true
				}
				local = append(local, o)
			}
			mu.Lock()
			outcomes = append(outcomes, local...)
			mu.Unlock()
		}()
	}

	var dropped []loadOutcome
	for k := 0; ; k++ {
		sched := start.Add(time.Duration(float64(k) * interval))
		if !sched.Before(end) {
			break
		}
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		select {
		case arrivals <- loadArrival{i: k, sched: sched}:
		default:
			dropped = append(dropped, loadOutcome{arrival: sched, busy: true, genDrop: true})
		}
	}
	close(arrivals)
	wg.Wait()
	outcomes = append(outcomes, dropped...)

	measureStart := start.Add(warmup)
	var (
		sent, ok, busy, failed, genDropped int
		lats                               []float64
	)
	for _, o := range outcomes {
		if o.arrival.Before(measureStart) {
			continue
		}
		sent++
		switch {
		case o.busy:
			busy++
			if o.genDrop {
				genDropped++
			}
		case o.failed:
			failed++
		default:
			ok++
			lats = append(lats, o.latency*1e6) // µs for workload.Percentile
		}
	}
	p := LoadPoint{TargetQPS: targetQPS, Errors: failed, GenDropped: genDropped}
	if sent > 0 {
		p.OfferedQPS = float64(sent) / window.Seconds()
		p.GoodputQPS = float64(ok) / window.Seconds()
		p.ShedRate = float64(busy) / float64(sent)
	}
	if len(lats) > 0 {
		p.P50Ms = workload.Percentile(lats, 0.50) / 1000
		p.P99Ms = workload.Percentile(lats, 0.99) / 1000
	}
	return p, nil
}
