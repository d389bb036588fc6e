package memo

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"xtenergy/internal/iss"
)

func newTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDoMissThenHits pins admission on reuse: on a disk-backed store a
// miss is written to disk only, its first repeat is a disk hit that
// promotes it, and only then is it served from memory.
func TestDoMissThenHits(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, dir)
	d := DigestBytes([]byte("req"))
	var computes atomic.Int64
	compute := func(context.Context) ([]byte, error) {
		computes.Add(1)
		return []byte("artifact"), nil
	}

	want := []struct {
		out        Outcome
		memEntries int
	}{{OutcomeMiss, 0}, {OutcomeDiskHit, 1}, {OutcomeMemHit, 1}}
	for i, w := range want {
		got, out, err := s.Do(context.Background(), d, compute)
		if err != nil || string(got) != "artifact" || out != w.out {
			t.Fatalf("Do #%d = %q, %v, %v; want outcome %v", i+1, got, out, err, w.out)
		}
		if c := s.Counters(); c.MemEntries != w.memEntries {
			t.Fatalf("after Do #%d: %d entries in memory, want %d", i+1, c.MemEntries, w.memEntries)
		}
	}

	// A fresh store over the same directory must hit the disk tier.
	s2 := newTestStore(t, dir)
	got, out, err := s2.Do(context.Background(), d, compute)
	if err != nil || string(got) != "artifact" || out != OutcomeDiskHit {
		t.Fatalf("disk-tier Do = %q, %v, %v", got, out, err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	c := s.Counters()
	if c.Misses != 1 || c.DiskHits != 1 || c.MemHits != 1 || c.Hits != 2 || c.MemBytes != int64(len("artifact")) {
		t.Fatalf("counters = %+v", c)
	}
	if c2 := s2.Counters(); c2.DiskHits != 1 || c2.Hits != 1 {
		t.Fatalf("fresh-store counters = %+v", c2)
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	s := newTestStore(t, "")
	d := DigestBytes([]byte("x"))
	if _, out, err := s.Do(context.Background(), d, func(context.Context) ([]byte, error) {
		return []byte("v"), nil
	}); err != nil || out != OutcomeMiss {
		t.Fatalf("Do = %v, %v", out, err)
	}
	if _, out, _ := s.Do(context.Background(), d, nil); out != OutcomeMemHit {
		t.Fatalf("second Do outcome = %v", out)
	}
}

// TestUnwritableDiskAdmitsMissToMemory breaks the disk tier after New.
// The miss must then be kept in memory, so the repeat is a memory hit
// rather than a recompute.
func TestUnwritableDiskAdmitsMissToMemory(t *testing.T) {
	d := DigestBytes([]byte("req"))
	cases := []struct {
		name      string
		breakDisk func(t *testing.T, s *Store, dir string)
	}{
		// A regular file where the entry's shard directory must go
		// fails the write even for root.
		{"blocked-shard", func(t *testing.T, s *Store, dir string) {
			if err := os.WriteFile(filepath.Dir(s.path(d)), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"read-only-root", func(t *testing.T, s *Store, dir string) {
			if os.Geteuid() == 0 {
				t.Skip("root ignores directory permissions")
			}
			if err := os.Chmod(dir, 0o500); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.Chmod(dir, 0o700) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := newTestStore(t, dir)
			tc.breakDisk(t, s, dir)
			var computes atomic.Int64
			compute := func(context.Context) ([]byte, error) {
				computes.Add(1)
				return []byte("artifact"), nil
			}
			for i, want := range []Outcome{OutcomeMiss, OutcomeMemHit} {
				got, out, err := s.Do(context.Background(), d, compute)
				if err != nil || string(got) != "artifact" || out != want {
					t.Fatalf("Do #%d = %q, %v, %v; want outcome %v", i+1, got, out, err, want)
				}
			}
			if n := computes.Load(); n != 1 {
				t.Fatalf("computed %d times, want 1", n)
			}
		})
	}
}

// TestOneShotMissesStayOnDisk: distinct requests that are never
// repeated leave the memory tier empty on a disk-backed store, and every
// one of them is still recallable from disk.
func TestOneShotMissesStayOnDisk(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, dir)
	const n = 50
	for i := 0; i < n; i++ {
		d := DigestBytes([]byte{byte(i)})
		if _, out, err := s.Do(context.Background(), d, func(context.Context) ([]byte, error) {
			return []byte{byte(i)}, nil
		}); err != nil || out != OutcomeMiss {
			t.Fatalf("Do #%d = %v, %v", i, out, err)
		}
	}
	if c := s.Counters(); c.MemEntries != 0 || c.MemBytes != 0 || c.Misses != n || c.Evictions != 0 {
		t.Fatalf("one-shot misses reached memory: %+v", c)
	}
	s2 := newTestStore(t, dir)
	for i := 0; i < n; i++ {
		if got, out, err := s2.Get(DigestBytes([]byte{byte(i)})); err != nil || out != OutcomeDiskHit || got[0] != byte(i) {
			t.Fatalf("entry %d: %v, %v, %v", i, got, out, err)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	s, err := New(Options{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Digest, 3)
	for i := range keys {
		keys[i] = DigestBytes([]byte{byte(i)})
		s.Put(keys[i], []byte{byte(i)})
	}
	if c := s.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if _, out, _ := s.Get(keys[0]); out != OutcomeMiss {
		t.Fatalf("oldest entry outcome = %v, want miss", out)
	}
	if _, out, _ := s.Get(keys[2]); out != OutcomeMemHit {
		t.Fatalf("newest entry outcome = %v, want mem-hit", out)
	}
}

func TestByteBoundEviction(t *testing.T) {
	s, err := New(Options{MaxBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	a, b := DigestBytes([]byte("a")), DigestBytes([]byte("b"))
	s.Put(a, make([]byte, 8))
	s.Put(b, make([]byte, 8))
	if c := s.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if _, out, _ := s.Get(b); out != OutcomeMemHit {
		t.Fatalf("latest entry evicted")
	}
}

// corruptEntry rewrites the stored file through fn.
func corruptEntry(t *testing.T, s *Store, d Digest, fn func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(s.path(d))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(d), fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptEntriesRecompute(t *testing.T) {
	cases := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"bit-flipped", func(b []byte) []byte {
			b[len(b)-1] ^= 0x40
			return b
		}},
		{"header-only", func(b []byte) []byte { return b[:4] }},
		{"bad-magic", func(b []byte) []byte {
			b[0] ^= 0xFF
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var faults []error
			s, err := New(Options{Dir: dir, OnCorrupt: func(err error) { faults = append(faults, err) }})
			if err != nil {
				t.Fatal(err)
			}
			d := DigestBytes([]byte("req"))
			s.Put(d, []byte("payload"))
			corruptEntry(t, s, d, tc.fn)

			// Read through a fresh store so the memory tier cannot mask
			// the corruption.
			var faults2 []error
			s2, err := New(Options{Dir: dir, OnCorrupt: func(err error) { faults2 = append(faults2, err) }})
			if err != nil {
				t.Fatal(err)
			}
			got, out, err := s2.Do(context.Background(), d, func(context.Context) ([]byte, error) {
				return []byte("payload"), nil
			})
			if err != nil || string(got) != "payload" || out != OutcomeMiss {
				t.Fatalf("Do after corruption = %q, %v, %v", got, out, err)
			}
			if len(faults2) != 1 {
				t.Fatalf("OnCorrupt called %d times, want 1", len(faults2))
			}
			f, ok := iss.AsFault(faults2[0])
			if !ok || f.Kind != iss.FaultArtifact {
				t.Fatalf("corruption error %v is not a typed FaultArtifact", faults2[0])
			}
			if c := s2.Counters(); c.Corrupt != 1 || c.Misses != 1 {
				t.Fatalf("counters = %+v", c)
			}

			// The recompute rewrote the entry: a third store reads it clean.
			s3 := newTestStore(t, dir)
			got, out, err = s3.Get(d)
			if err != nil || string(got) != "payload" || out != OutcomeDiskHit {
				t.Fatalf("entry not rewritten: %q, %v, %v", got, out, err)
			}
		})
	}
}

func TestThunderingHerdCoalesces(t *testing.T) {
	s := newTestStore(t, t.TempDir())
	d := DigestBytes([]byte("herd"))
	const n = 32
	var computes atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{}, n)

	var wg sync.WaitGroup
	results := make([]string, n)
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			got, out, err := s.Do(context.Background(), d, func(context.Context) ([]byte, error) {
				computes.Add(1)
				<-release // hold the leader so the herd piles up
				return []byte("one"), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = string(got)
			outcomes[i] = out
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	// Release the leader only once every follower has joined its
	// flight: a late arrival would otherwise find the finished entry on
	// disk and count as a disk hit instead of a coalesced wait.
	for s.Counters().Coalesced < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times under the herd, want exactly 1", got)
	}
	var miss, coalesced int
	for i := range results {
		if results[i] != "one" {
			t.Fatalf("goroutine %d got %q", i, results[i])
		}
		switch outcomes[i] {
		case OutcomeMiss:
			miss++
		case OutcomeCoalesced, OutcomeMemHit:
			coalesced++
		default:
			t.Fatalf("goroutine %d outcome %v", i, outcomes[i])
		}
	}
	if miss != 1 {
		t.Fatalf("%d leaders, want 1", miss)
	}
	c := s.Counters()
	if c.Misses != 1 {
		t.Fatalf("misses = %d, want 1", c.Misses)
	}
	if c.Coalesced+c.MemHits != n-1 {
		t.Fatalf("coalesced %d + mem hits %d != %d", c.Coalesced, c.MemHits, n-1)
	}
}

func TestComputeErrorsAreNotCached(t *testing.T) {
	s := newTestStore(t, t.TempDir())
	d := DigestBytes([]byte("err"))
	boom := fmt.Errorf("boom")
	if _, _, err := s.Do(context.Background(), d, func(context.Context) ([]byte, error) {
		return nil, boom
	}); err != boom {
		t.Fatalf("err = %v", err)
	}
	got, out, err := s.Do(context.Background(), d, func(context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || string(got) != "ok" || out != OutcomeMiss {
		t.Fatalf("retry = %q, %v, %v", got, out, err)
	}
}

func TestFollowerRetriesAfterCancelledLeader(t *testing.T) {
	s := newTestStore(t, t.TempDir())
	d := DigestBytes([]byte("cancel"))
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := s.Do(leaderCtx, d, func(ctx context.Context) ([]byte, error) {
			close(leaderIn)
			<-release
			return nil, &iss.Fault{Kind: iss.FaultCancelled, PC: -1, Msg: "cancelled", Err: ctx.Err()}
		})
		if f, ok := iss.AsFault(err); !ok || f.Kind != iss.FaultCancelled {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-leaderIn

	wg.Add(1)
	go func() {
		defer wg.Done()
		got, _, err := s.Do(context.Background(), d, func(context.Context) ([]byte, error) {
			return []byte("fresh"), nil
		})
		if err != nil || string(got) != "fresh" {
			t.Errorf("follower = %q, %v", got, err)
		}
	}()

	cancelLeader()
	close(release)
	wg.Wait()
}
