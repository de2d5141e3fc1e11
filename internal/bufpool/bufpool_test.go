package bufpool

import (
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{0, 0}, {1, 0}, {512, 0}, {513, 1}, {1024, 1},
		{1 << 20, numClasses - 1}, {1<<20 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetPutRecycles(t *testing.T) {
	p := New()
	b := p.Get(100)
	if len(b.B) != 100 || cap(b.B) != 512 {
		t.Fatalf("Get(100): len %d cap %d, want 100/512", len(b.B), cap(b.B))
	}
	b.B[0] = 0xAA
	p.Put(b)
	st := p.Stats()
	if st.Gets != 1 || st.Puts != 1 || st.Misses != 1 || st.RetainedBytes != 512 {
		t.Fatalf("stats after one round trip: %+v", st)
	}
	b2 := p.Get(200)
	if &b2.B[0] != &b.B[0] {
		t.Error("second Get did not recycle the pooled buffer")
	}
	if len(b2.B) != 200 {
		t.Errorf("recycled len = %d, want 200", len(b2.B))
	}
	st = p.Stats()
	if st.Misses != 1 {
		t.Errorf("recycled Get counted as miss: %+v", st)
	}
	if st.RetainedBytes != 0 {
		t.Errorf("retained bytes after checkout = %d, want 0", st.RetainedBytes)
	}
}

func TestOversizeNeverPooled(t *testing.T) {
	p := New()
	b := p.Get(1<<20 + 1)
	if len(b.B) != 1<<20+1 {
		t.Fatalf("oversize len = %d", len(b.B))
	}
	p.Put(b)
	if st := p.Stats(); st.RetainedBytes != 0 {
		t.Errorf("oversize buffer retained: %+v", st)
	}
	p.Put(nil) // must not panic
}

func TestFreeListBounded(t *testing.T) {
	p := New()
	bufs := make([]*Buf, perClass+10)
	for i := range bufs {
		bufs[i] = p.Get(64)
	}
	for _, b := range bufs {
		p.Put(b)
	}
	if st := p.Stats(); st.RetainedBytes != perClass*512 {
		t.Errorf("retained = %d, want %d", st.RetainedBytes, perClass*512)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b := p.Get(300 + i%2000)
				b.B[0] = byte(i)
				p.Put(b)
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Gets != 8000 || st.Puts != 8000 {
		t.Errorf("stats = %+v, want 8000 gets/puts", st)
	}
	// Put accounts a buffer before publishing it (and touches it no more
	// afterwards — the race detector fails this test otherwise), so once
	// quiescent the gauge equals what is parked on the free lists.
	var parked uint64
	for c := range p.free {
		parked += uint64(len(p.free[c])) << (minClassBits + c)
	}
	if st.RetainedBytes != parked {
		t.Errorf("retained = %d, free lists hold %d", st.RetainedBytes, parked)
	}
}

func BenchmarkGetPut(b *testing.B) {
	p := New()
	p.Put(p.Get(600)) // warm the class
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Put(p.Get(600))
	}
}
