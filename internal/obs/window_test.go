package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// t0 starts a bucket: 3,600,000 s is epoch 360,000, slot 0 of a ring of
// four.
var t0 = time.Unix(3_600_000, 0)

func sum2(w *Window, now time.Time, k int) [2]uint64 {
	var d [2]uint64
	w.Sum(now, k, d[:])
	return d
}

// TestWindowBuckets pins the ring under a fixed clock: bucket rollover
// at a 10 s boundary, trailing-k sums across the ring wrap, a stale
// epoch's reset when its slot is reused, and dropped writes into an
// epoch the ring has passed.
func TestWindowBuckets(t *testing.T) {
	w := NewWindow(4, 2)
	w.Add(t0, 0, 1)
	w.Add(t0.Add(9*time.Second), 0, 2) // same bucket as t0
	w.Add(t0.Add(9*time.Second), 1, 5)
	w.Add(t0.Add(10*time.Second), 0, 4) // rollover into the next bucket
	if got := sum2(w, t0.Add(10*time.Second), 1); got != [2]uint64{4, 0} {
		t.Fatalf("newest bucket = %v, want [4 0]", got)
	}
	if got := sum2(w, t0.Add(10*time.Second), 2); got != [2]uint64{7, 5} {
		t.Fatalf("trailing 2 = %v, want [7 5]", got)
	}

	// Fill the ring, then wrap: t0+40s reuses t0's slot, whose stale
	// epoch is reset before the new bucket counts.
	w.Add(t0.Add(20*time.Second), 0, 8)
	w.Add(t0.Add(30*time.Second), 0, 16)
	w.Add(t0.Add(40*time.Second), 1, 32)
	now := t0.Add(40 * time.Second)
	if got := sum2(w, now, 1); got != [2]uint64{0, 32} {
		t.Fatalf("reused slot = %v, want [0 32] (old pass cleared)", got)
	}
	if got := sum2(w, now, 4); got != [2]uint64{28, 32} {
		t.Fatalf("trailing 4 across the wrap = %v, want [28 32]", got)
	}
	if got := sum2(w, t0, 1); got != [2]uint64{} {
		t.Fatalf("reading a passed epoch = %v, want zeros", got)
	}

	// A late write a full ring behind is dropped, not mixed into the
	// slot's newer bucket.
	w.Add(t0, 0, 64)
	if got := sum2(w, now, 4); got != [2]uint64{28, 32} {
		t.Fatalf("after a late write = %v, want [28 32]", got)
	}

	// After a quiet spell only buckets still inside the span count.
	if got := sum2(w, t0.Add(70*time.Second), 4); got != [2]uint64{0, 32} {
		t.Fatalf("trailing 4 after 30 s idle = %v, want [0 32]", got)
	}
}

// TestWindowAbsorb: absorbing adds buckets epoch by epoch — into a
// matching bucket, into a slot holding an older pass (claimed), and
// never into a slot holding a newer epoch.
func TestWindowAbsorb(t *testing.T) {
	dst, src := NewWindow(3, 1), NewWindow(3, 1)
	dst.Add(t0, 0, 1)
	dst.Add(t0.Add(20*time.Second), 0, 8)
	src.Add(t0.Add(-10*time.Second), 0, 16) // slot of t0+20s: dst is newer
	src.Add(t0, 0, 2)                       // matches dst's bucket
	src.Add(t0.Add(10*time.Second), 0, 4)   // dst's slot never written
	dst.Absorb(src)
	var got [1]uint64
	dst.Sum(t0.Add(20*time.Second), 3, got[:])
	if got[0] != 8+4+3 {
		t.Fatalf("trailing 3 after absorb = %d, want 15", got[0])
	}
}

// TestWindowConcurrent is the -race hammer: writers cross a bucket
// boundary at staggered moments while a reader sums. A bucket claimed
// before the writers start counts exactly; the freshly claimed one may
// lose the adds that race its reset, never gain any.
func TestWindowConcurrent(t *testing.T) {
	const writers, perBucket = 8, 500
	w := NewWindow(6, 1)
	w.Add(t0, 0, 0) // claim the first bucket up front
	next := t0.Add(WindowBucket)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perBucket; i++ {
				w.Add(t0, 0, 1)
			}
			for i := 0; i < perBucket; i++ {
				w.Add(next, 0, 1)
			}
		}()
	}
	stop := make(chan struct{})
	read := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				read <- nil
				return
			default:
			}
			var s [1]uint64
			w.Sum(next, 2, s[:])
			if s[0] > 2*writers*perBucket {
				read <- fmt.Errorf("reader saw %d adds, more than the %d made", s[0], 2*writers*perBucket)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	var first, second [1]uint64
	w.Sum(t0, 1, first[:])
	w.Sum(next, 1, second[:])
	if first[0] != writers*perBucket {
		t.Fatalf("pre-claimed bucket = %d, want %d", first[0], writers*perBucket)
	}
	if second[0] == 0 || second[0] > writers*perBucket {
		t.Fatalf("racing bucket = %d, want in (0, %d]", second[0], writers*perBucket)
	}
}
