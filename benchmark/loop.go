package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	encdbdb "github.com/encdbdb/encdbdb"
)

// run executes one pooled statement through the client's Session, the way an
// application would, and reduces the decrypted answer to its checkable form.
// delivered is the number of rows handed to the caller (1 for a count).
func (c *client) run(ctx context.Context, s *statement) (got want, delivered int, err error) {
	switch s.how {
	case howQuery:
		rows, err := c.stmts[s.tmpl].Query(ctx, s.args...)
		if err != nil {
			return want{}, 0, err
		}
		sum, n := uint64(fnvOffset), 0
		for rows.Next() {
			sum = foldRow(sum, rows.Row())
			n++
		}
		rows.Close()
		return want{count: n, sum: sum}, n, rows.Err()
	case howAdhoc:
		res, err := c.sess.ExecContext(ctx, s.text)
		return reduce(res, err)
	default:
		res, err := c.stmts[s.tmpl].Exec(ctx, s.args...)
		return reduce(res, err)
	}
}

func reduce(res *encdbdb.Result, err error) (want, int, error) {
	if err != nil {
		return want{}, 0, err
	}
	if res.Kind == encdbdb.KindCount {
		return want{count: res.Count}, 1, nil
	}
	return want{count: len(res.Rows), sum: checksum(res.Rows)}, len(res.Rows), nil
}

// sample is one completed statement of the measured window.
type sample struct {
	class int
	ms    float64
}

// tally is what one client (or one phase) observed. Tallies are merged after
// the goroutines that filled them have returned.
type tally struct {
	attempted int
	failed    int
	delivered int // decrypted rows handed to callers by correct statements
	samples   []sample
	inCall    time.Duration // time spent inside the system under test
	firstErr  string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.delivered += o.delivered
	t.samples = append(t.samples, o.samples...)
	t.inCall += o.inCall
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// check runs s once, checks the answer against the oracle and records the
// outcome; a failed or wrong statement contributes no latency sample, so
// latency percentiles describe correct statements only and every miss shows
// in failed/attempted.
func (c *client) check(ctx context.Context, s *statement, t *tally, timed bool) {
	start := time.Now()
	got, delivered, err := c.run(ctx, s)
	took := time.Since(start)
	t.attempted++
	t.inCall += took
	switch {
	case err != nil:
		t.fail("%s: %v", s.text, err)
	case got != s.want:
		t.fail("%s: got %d rows/count checksum %x, oracle says %d checksum %x", s.text, got.count, got.sum, s.want.count, s.want.sum)
	default:
		t.delivered += delivered
		if timed {
			t.samples = append(t.samples, sample{class: s.class, ms: float64(took.Nanoseconds()) / 1e6})
		}
	}
}

// warmUp runs w.warm statements of every class, split across the clients,
// and checks them. It fills caches and finishes lazy set-up before timing.
func warmUp(ctx context.Context, w *workload, clients []*client) *tally {
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range w.classes {
				stmts := w.classes[k].stmts
				for i := ci; i < w.warm; i += len(clients) {
					c.check(ctx, &stmts[i%len(stmts)], &tallies[ci], false)
				}
			}
		}()
	}
	wg.Wait()
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total
}

// closedLoop is the measured window of a read-only workload: every client
// issues its next statement only after the previous answer arrived and was
// checked, cycling through the workload's class mix and drawing each
// statement from the class pool with a client-specific seeded generator.
// It returns the merged tally and the wall time from the common start to the
// last completion.
func closedLoop(ctx context.Context, w *workload, clients []*client, seed int64, window time.Duration) (*tally, time.Duration) {
	tallies := make([]tally, len(clients))
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 1000*int64(ci+1)))
			t := &tallies[ci]
			for i := ci; time.Now().Before(deadline); i++ {
				stmts := w.classes[w.mix[i%len(w.mix)]].stmts
				c.check(ctx, &stmts[rng.Intn(len(stmts))], t, true)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total, elapsed
}
