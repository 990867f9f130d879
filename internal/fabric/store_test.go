package fabric

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/store"
)

// stalledWorker starts a worker that sleeps d per streamed record (the
// deliberately-slow-worker hook).
func stalledWorker(t *testing.T, d time.Duration) (*Worker, string) {
	t.Helper()
	w := NewWorker(nil)
	w.Workers = 2
	w.StallPerRecord = d
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv.URL
}

// storeWorker starts a worker backed by a persistent store in dir.
func storeWorker(t *testing.T, dir string) (*Worker, string) {
	t.Helper()
	st, err := store.Open(dir, exp.StoreOptions(0))
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	w := NewWorker(nil)
	w.Workers = 2
	w.Store = st
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv.URL
}

// TestSelfSchedulingSlowWorker pairs a fast worker with a deliberately
// slow one (4x the per-record stall). Each worker asks for its next
// range only after its last one returns, so the slow worker serves
// fewer records; ranges keep the configured size and the merged bytes
// stay identical to a local sweep.
func TestSelfSchedulingSlowWorker(t *testing.T) {
	base := testGrid(t)
	var specs []exp.Spec
	for i := 0; i < 8; i++ {
		specs = append(specs, base...) // 64 positions; dedup keeps runs cheap
	}
	_, fastURL := stalledWorker(t, 20*time.Millisecond)
	_, slowURL := stalledWorker(t, 80*time.Millisecond)
	c := runFleet(t, &Coordinator{
		Workers:   []string{fastURL, slowURL},
		RangeSize: 4,
	}, specs, false)

	snap := c.Snapshot()
	records := map[string]int64{}
	for _, ws := range snap.Workers {
		records[ws.Addr] = ws.Records
	}
	fast, slow := records[NormalizeAddr(fastURL)], records[NormalizeAddr(slowURL)]
	if slow >= fast {
		t.Errorf("slow worker served %d records, fast worker %d; want the slow one to serve fewer", slow, fast)
	}
	if want := (len(specs) + 3) / 4; snap.RangesTotal != want {
		t.Errorf("range count %d, want ceil(%d/4) = %d", snap.RangesTotal, len(specs), want)
	}
}

// TestWorkerStoreWarmRerun re-runs a fleet sweep against a fresh
// worker sharing the first worker's store directory: every leased spec
// must be served from disk (zero simulations) with identical bytes.
func TestWorkerStoreWarmRerun(t *testing.T) {
	specs := testGrid(t)
	dir := t.TempDir()

	cold, coldURL := storeWorker(t, dir)
	runFleet(t, &Coordinator{Workers: []string{coldURL}, RangeSize: 3}, specs, false)
	if snap := cold.Progress.Snapshot(); snap.Executed != len(specs) || snap.DiskHits != 0 {
		t.Errorf("cold worker executed/disk = %d/%d, want %d/0", snap.Executed, snap.DiskHits, len(specs))
	}

	warm, warmURL := storeWorker(t, dir)
	runFleet(t, &Coordinator{Workers: []string{warmURL}, RangeSize: 3}, specs, false)
	snap := warm.Progress.Snapshot()
	if snap.Executed != 0 {
		t.Errorf("warm worker executed %d simulations, want 0 (all leases should hit the store)", snap.Executed)
	}
	if snap.DiskHits != len(specs) {
		t.Errorf("warm worker served %d specs from the store, want %d", snap.DiskHits, len(specs))
	}
}

// TestDrainFinishesInflightLease drains a worker mid-lease: the
// in-flight lease must stream to completion, the store must close
// flushed and verifiable, later leases must answer 503, and the
// coordinator must finish the sweep locally — byte-identically.
func TestDrainFinishesInflightLease(t *testing.T) {
	specs := testGrid(t)
	dir := t.TempDir()
	st, err := store.Open(dir, exp.StoreOptions(0))
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	w := NewWorker(nil)
	w.Workers = 2
	w.Store = st
	w.StallPerRecord = 50 * time.Millisecond
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	c := &Coordinator{Workers: []string{srv.URL}, RangeSize: 4, Logf: t.Logf}
	var got bytes.Buffer
	var runErr error
	done := make(chan struct{})
	go func() {
		_, runErr = c.Run(&got, specs)
		close(done)
	}()

	// Wait until the first lease is executing, then drain under it.
	deadline := time.Now().Add(10 * time.Second)
	for w.Progress.Snapshot().Executed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no lease started within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := w.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	<-done
	if runErr != nil {
		t.Fatalf("Run: %v", runErr)
	}
	if want := localBytes(t, specs, false, false); !bytes.Equal(want, got.Bytes()) {
		t.Errorf("drained sweep diverged from the local reference:\nlocal:\n%s\nfabric:\n%s", want, got.Bytes())
	}
	if c.Snapshot().LocalRecords == 0 {
		t.Error("post-drain ranges did not fall back to local execution")
	}

	// A post-drain lease is refused outright.
	body, _ := json.Marshal(RunRequest{SchemaVersion: exp.SchemaVersion, Lease: "post-drain", Keys: []string{specs[0].Key()}})
	resp, err := http.Post(srv.URL+RunPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain lease answered %s, want 503", resp.Status)
	}

	// Drain closed the store; a fresh handle sees the completed lease's
	// records, all frames intact.
	st2, err := store.Open(dir, exp.StoreOptions(0))
	if err != nil {
		t.Fatalf("reopening drained store: %v", err)
	}
	defer st2.Close()
	rep, err := st2.Verify(nil)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.CorruptFrames != 0 || rep.BadValues != 0 {
		t.Errorf("drained store verify: %+v, want no corruption", rep)
	}
	if rep.Entries < 4 {
		t.Errorf("drained store holds %d records, want at least the completed lease's 4", rep.Entries)
	}
}
